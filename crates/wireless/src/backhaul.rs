//! Edge-to-edge backhaul links.
//!
//! The paper assumes all edge servers are interconnected and that the
//! transmission rate between any two servers is a constant `C_{m,m'}`
//! (10 Gbps in the evaluation). [`Backhaul`] models that fully connected
//! uniform mesh: every inter-server link runs at one rate, which lets the
//! eligibility kernel decide all non-covering servers of a request with a
//! single probe.

use crate::error::WirelessError;

/// The edge-to-edge backhaul of a topology with `M` servers.
#[derive(Debug, Clone, PartialEq)]
pub struct Backhaul {
    num_servers: usize,
    default_rate_bps: f64,
}

impl Backhaul {
    /// Creates a fully connected backhaul where every link runs at
    /// `default_rate_bps`.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::InvalidParameter`] if the rate is not
    /// strictly positive and finite.
    pub fn uniform(num_servers: usize, default_rate_bps: f64) -> Result<Self, WirelessError> {
        if !(default_rate_bps.is_finite() && default_rate_bps > 0.0) {
            return Err(WirelessError::InvalidParameter {
                name: "default_rate_bps",
                value: default_rate_bps,
            });
        }
        Ok(Self {
            num_servers,
            default_rate_bps,
        })
    }

    /// The 10 Gbps mesh used in the paper's evaluation.
    pub fn paper_default(num_servers: usize) -> Self {
        // Same construction as `uniform(num_servers, 10.0e9)`, which can
        // only reject non-finite or non-positive rates — built directly
        // so the constant-rate path has no panic machinery at all.
        Self {
            num_servers,
            default_rate_bps: 10.0e9,
        }
    }

    /// Number of edge servers connected by this backhaul.
    pub fn num_servers(&self) -> usize {
        self.num_servers
    }

    /// The mesh-wide link rate in bits per second.
    pub fn default_rate_bps(&self) -> f64 {
        self.default_rate_bps
    }

    /// The rate of the ordered link `from -> to` in bits per second.
    ///
    /// Transferring from a server to itself takes no time; this returns
    /// `f64::INFINITY` in that case so that `size / rate` evaluates to zero
    /// transfer latency.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::InvalidLink`] if an endpoint is out of
    /// range.
    pub fn rate_bps(&self, from: usize, to: usize) -> Result<f64, WirelessError> {
        if from >= self.num_servers || to >= self.num_servers {
            return Err(WirelessError::InvalidLink {
                from,
                to,
                servers: self.num_servers,
            });
        }
        if from == to {
            return Ok(f64::INFINITY);
        }
        Ok(self.default_rate_bps)
    }

    /// Time in seconds to transfer `bytes` over the link `from -> to`.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::InvalidLink`] if an endpoint is out of
    /// range.
    pub fn transfer_latency_s(
        &self,
        from: usize,
        to: usize,
        bytes: u64,
    ) -> Result<f64, WirelessError> {
        let rate = self.rate_bps(from, to)?;
        if rate.is_infinite() {
            return Ok(0.0);
        }
        Ok(bytes as f64 * 8.0 / rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_mesh_has_same_rate_everywhere() {
        let bh = Backhaul::uniform(4, 10.0e9).unwrap();
        for from in 0..4 {
            for to in 0..4 {
                let r = bh.rate_bps(from, to).unwrap();
                if from == to {
                    assert!(r.is_infinite());
                } else {
                    assert_eq!(r, 10.0e9);
                }
            }
        }
        assert_eq!(bh.num_servers(), 4);
        assert_eq!(bh.default_rate_bps(), 10.0e9);
    }

    #[test]
    fn paper_default_is_ten_gbps() {
        let bh = Backhaul::paper_default(6);
        assert_eq!(bh.rate_bps(0, 5).unwrap(), 10.0e9);
    }

    #[test]
    fn self_transfer_is_free() {
        let bh = Backhaul::paper_default(3);
        assert_eq!(bh.transfer_latency_s(2, 2, 1_000_000_000).unwrap(), 0.0);
    }

    #[test]
    fn transfer_latency_matches_rate() {
        let bh = Backhaul::uniform(2, 8.0e9).unwrap();
        // 1 GB over 8 Gbps = 1 second.
        let latency = bh.transfer_latency_s(0, 1, 1_000_000_000).unwrap();
        assert!((latency - 1.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_links_and_rates_are_rejected() {
        let bh = Backhaul::uniform(3, 10.0e9).unwrap();
        assert!(bh.rate_bps(0, 7).is_err());
        assert!(bh.transfer_latency_s(7, 0, 10).is_err());
        assert!(Backhaul::uniform(3, -1.0).is_err());
        assert!(Backhaul::uniform(3, f64::NAN).is_err());
    }
}

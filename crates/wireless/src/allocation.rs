//! Per-user bandwidth and power allocation.
//!
//! Section VII-A of the paper allocates to each associated user of edge
//! server `m` the expected per-user share
//!
//! ```text
//! B̄_{m,k} = B / (p_A · |K_m|),    P̄_{m,k} = P / (p_A · |K_m|)
//! ```
//!
//! i.e. the total bandwidth/power divided by the *expected number of active
//! users* of that server. [`PerUserAllocation`] computes and caches those
//! shares for a topology described by a [`CoverageMap`].

use crate::coverage::CoverageMap;
use crate::error::WirelessError;
use crate::params::RadioParams;

/// The expected bandwidth/power share a given server dedicates to each of
/// its associated users.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerShare {
    /// Expected per-user bandwidth in Hz (`B̄_{m,k}`).
    pub bandwidth_hz: f64,
    /// Expected per-user transmit power in Watts (`P̄_{m,k}`).
    pub power_w: f64,
    /// The divisor used, i.e. the expected number of active users
    /// (at least 1).
    pub expected_active_users: f64,
}

/// Per-server expected allocation for every edge server in a topology.
#[derive(Debug, Clone, PartialEq)]
pub struct PerUserAllocation {
    shares: Vec<ServerShare>,
}

impl PerUserAllocation {
    /// Computes the per-user allocation for every server in `coverage`.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::InvalidParameter`] if `params` fails
    /// validation.
    pub fn compute(coverage: &CoverageMap, params: &RadioParams) -> Result<Self, WirelessError> {
        params.validate()?;
        let shares = (0..coverage.num_servers())
            .map(|m| {
                let active = coverage.expected_active_users(m, params.activity_probability);
                ServerShare {
                    bandwidth_hz: params.total_bandwidth_hz / active,
                    power_w: params.total_power_w() / active,
                    expected_active_users: active,
                }
            })
            .collect();
        Ok(Self { shares })
    }

    /// Number of servers covered by this allocation.
    pub fn num_servers(&self) -> usize {
        self.shares.len()
    }

    /// The share server `m` dedicates to each associated user.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::IndexOutOfRange`] if `m` is out of range.
    pub fn share(&self, m: usize) -> Result<ServerShare, WirelessError> {
        self.shares
            .get(m)
            .copied()
            .ok_or(WirelessError::IndexOutOfRange {
                entity: "server",
                index: m,
                len: self.shares.len(),
            })
    }

    /// Iterates over `(server_index, share)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, ServerShare)> + '_ {
        self.shares.iter().copied().enumerate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;

    fn topology(users: usize) -> CoverageMap {
        // One server at the origin covering `users` users placed nearby.
        let server = vec![Point::new(0.0, 0.0)];
        let user_points: Vec<Point> = (0..users)
            .map(|i| Point::new(10.0 + i as f64, 0.0))
            .collect();
        CoverageMap::build(&user_points, &server, 275.0).unwrap()
    }

    #[test]
    fn share_divides_by_expected_active_users() {
        let params = RadioParams::paper_defaults();
        let coverage = topology(10);
        let alloc = PerUserAllocation::compute(&coverage, &params).unwrap();
        let share = alloc.share(0).unwrap();
        // 10 users with activity 0.5 -> 5 expected active users.
        assert_eq!(share.expected_active_users, 5.0);
        assert!((share.bandwidth_hz - params.total_bandwidth_hz / 5.0).abs() < 1e-6);
        assert!((share.power_w - params.total_power_w() / 5.0).abs() < 1e-9);
    }

    #[test]
    fn lightly_loaded_server_grants_full_resources() {
        let params = RadioParams::paper_defaults();
        let coverage = topology(1);
        let alloc = PerUserAllocation::compute(&coverage, &params).unwrap();
        let share = alloc.share(0).unwrap();
        // One user with activity 0.5 would give 0.5 expected active users;
        // the floor of 1 active user applies.
        assert_eq!(share.expected_active_users, 1.0);
        assert_eq!(share.bandwidth_hz, params.total_bandwidth_hz);
    }

    #[test]
    fn more_users_means_smaller_shares() {
        let params = RadioParams::paper_defaults();
        let light = PerUserAllocation::compute(&topology(4), &params).unwrap();
        let heavy = PerUserAllocation::compute(&topology(40), &params).unwrap();
        assert!(light.share(0).unwrap().bandwidth_hz > heavy.share(0).unwrap().bandwidth_hz);
        assert!(light.share(0).unwrap().power_w > heavy.share(0).unwrap().power_w);
    }

    #[test]
    fn out_of_range_server_errors() {
        let params = RadioParams::paper_defaults();
        let alloc = PerUserAllocation::compute(&topology(2), &params).unwrap();
        assert_eq!(alloc.num_servers(), 1);
        assert!(alloc.share(1).is_err());
    }

    #[test]
    fn invalid_params_are_rejected() {
        let bad = RadioParams {
            total_bandwidth_hz: -1.0,
            ..RadioParams::paper_defaults()
        };
        assert!(PerUserAllocation::compute(&topology(2), &bad).is_err());
    }

    #[test]
    fn iter_yields_all_servers() {
        let params = RadioParams::paper_defaults();
        let servers = vec![Point::new(0.0, 0.0), Point::new(600.0, 0.0)];
        let users = vec![Point::new(5.0, 0.0), Point::new(610.0, 0.0)];
        let coverage = CoverageMap::build(&users, &servers, 275.0).unwrap();
        let alloc = PerUserAllocation::compute(&coverage, &params).unwrap();
        let collected: Vec<_> = alloc.iter().collect();
        assert_eq!(collected.len(), 2);
        assert_eq!(collected[0].0, 0);
        assert_eq!(collected[1].0, 1);
    }
}

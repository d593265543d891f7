//! Typed radio parameters and the paper's default configuration.
//!
//! Section VII-A of the paper fixes the following physical-layer parameters:
//!
//! * total edge-server bandwidth `B = 400 MHz`,
//! * total transmit power `P = 43 dBm`,
//! * user activity probability `p_A = 0.5`,
//! * antenna factor `γ₀ = 1`, path-loss exponent `α₀ = 4`,
//! * noise power spectral density `n₀` (thermal noise, −174 dBm/Hz),
//! * coverage radius 275 m,
//! * edge-to-edge backhaul rate 10 Gbps.
//!
//! [`RadioParams`] bundles these and offers a builder for experiments that
//! sweep any of them.

use crate::error::WirelessError;

/// Thermal noise power spectral density in dBm/Hz used by default.
pub const DEFAULT_NOISE_DBM_PER_HZ: f64 = -174.0;

/// Converts a power in dBm to Watts.
///
/// ```
/// use trimcaching_wireless::params::dbm_to_watts;
/// assert!((dbm_to_watts(30.0) - 1.0).abs() < 1e-12);
/// assert!((dbm_to_watts(0.0) - 0.001).abs() < 1e-12);
/// ```
pub fn dbm_to_watts(dbm: f64) -> f64 {
    10f64.powf((dbm - 30.0) / 10.0)
}

/// Converts a power in Watts to dBm.
///
/// # Panics
///
/// Panics in debug builds if `watts` is not strictly positive.
pub fn watts_to_dbm(watts: f64) -> f64 {
    debug_assert!(watts > 0.0, "power must be positive to express in dBm");
    10.0 * watts.log10() + 30.0
}

/// Physical-layer parameters of the wireless edge network.
///
/// Construct with [`RadioParams::paper_defaults`] for the paper's setting or
/// with [`RadioParamsBuilder`] to override individual fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadioParams {
    /// Total downlink bandwidth of an edge server, in Hz (`B`).
    pub total_bandwidth_hz: f64,
    /// Total transmit power of an edge server, in dBm (`P`).
    pub total_power_dbm: f64,
    /// Probability that an associated user is active (`p_A`).
    pub activity_probability: f64,
    /// Antenna-related gain factor (`γ₀` in Eq. (1)).
    pub antenna_gain: f64,
    /// Path-loss exponent (`α₀` in Eq. (1)).
    pub path_loss_exponent: f64,
    /// Noise power spectral density in dBm/Hz (`n₀`).
    pub noise_dbm_per_hz: f64,
    /// Coverage radius of an edge server, in metres.
    pub coverage_radius_m: f64,
    /// Edge-to-edge backhaul rate, in bits per second (`C_{m,m'}`).
    pub backhaul_rate_bps: f64,
    /// Minimum server-user distance used to keep the path loss bounded, in
    /// metres. The paper's model is singular at `d = 0`; a 1 m floor is the
    /// conventional fix and has no effect on the reported metrics.
    pub min_distance_m: f64,
}

impl RadioParams {
    /// The parameter set of Section VII-A of the paper.
    pub fn paper_defaults() -> Self {
        Self {
            total_bandwidth_hz: 400.0e6,
            total_power_dbm: 43.0,
            activity_probability: 0.5,
            antenna_gain: 1.0,
            path_loss_exponent: 4.0,
            noise_dbm_per_hz: DEFAULT_NOISE_DBM_PER_HZ,
            coverage_radius_m: 275.0,
            backhaul_rate_bps: 10.0e9,
            min_distance_m: 1.0,
        }
    }

    /// Total transmit power in Watts.
    pub fn total_power_w(&self) -> f64 {
        dbm_to_watts(self.total_power_dbm)
    }

    /// Noise power spectral density in Watts per Hz.
    pub fn noise_w_per_hz(&self) -> f64 {
        dbm_to_watts(self.noise_dbm_per_hz)
    }

    /// Starts a builder initialised with the paper defaults.
    pub fn builder() -> RadioParamsBuilder {
        RadioParamsBuilder::new()
    }

    /// Validates that every parameter is physically meaningful.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::InvalidParameter`] naming the first invalid
    /// field.
    pub fn validate(&self) -> Result<(), WirelessError> {
        fn positive(name: &'static str, v: f64) -> Result<(), WirelessError> {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(WirelessError::InvalidParameter { name, value: v })
            }
        }
        positive("total_bandwidth_hz", self.total_bandwidth_hz)?;
        if !self.total_power_dbm.is_finite() {
            return Err(WirelessError::InvalidParameter {
                name: "total_power_dbm",
                value: self.total_power_dbm,
            });
        }
        if !(0.0..=1.0).contains(&self.activity_probability)
            || !self.activity_probability.is_finite()
        {
            return Err(WirelessError::InvalidParameter {
                name: "activity_probability",
                value: self.activity_probability,
            });
        }
        positive("antenna_gain", self.antenna_gain)?;
        positive("path_loss_exponent", self.path_loss_exponent)?;
        if !self.noise_dbm_per_hz.is_finite() {
            return Err(WirelessError::InvalidParameter {
                name: "noise_dbm_per_hz",
                value: self.noise_dbm_per_hz,
            });
        }
        positive("coverage_radius_m", self.coverage_radius_m)?;
        positive("backhaul_rate_bps", self.backhaul_rate_bps)?;
        positive("min_distance_m", self.min_distance_m)?;
        Ok(())
    }
}

impl Default for RadioParams {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

/// Builder for [`RadioParams`], initialised with the paper defaults.
///
/// ```
/// use trimcaching_wireless::params::RadioParams;
///
/// let params = RadioParams::builder()
///     .total_bandwidth_hz(200.0e6)
///     .coverage_radius_m(300.0)
///     .build()
///     .expect("valid parameters");
/// assert_eq!(params.total_bandwidth_hz, 200.0e6);
/// ```
#[derive(Debug, Clone)]
pub struct RadioParamsBuilder {
    params: RadioParams,
}

impl RadioParamsBuilder {
    /// Creates a builder seeded with [`RadioParams::paper_defaults`].
    pub fn new() -> Self {
        Self {
            params: RadioParams::paper_defaults(),
        }
    }

    /// Sets the total downlink bandwidth in Hz.
    pub fn total_bandwidth_hz(mut self, v: f64) -> Self {
        self.params.total_bandwidth_hz = v;
        self
    }

    /// Sets the total transmit power in dBm.
    pub fn total_power_dbm(mut self, v: f64) -> Self {
        self.params.total_power_dbm = v;
        self
    }

    /// Sets the user activity probability `p_A`.
    pub fn activity_probability(mut self, v: f64) -> Self {
        self.params.activity_probability = v;
        self
    }

    /// Sets the antenna gain factor `γ₀`.
    pub fn antenna_gain(mut self, v: f64) -> Self {
        self.params.antenna_gain = v;
        self
    }

    /// Sets the path-loss exponent `α₀`.
    pub fn path_loss_exponent(mut self, v: f64) -> Self {
        self.params.path_loss_exponent = v;
        self
    }

    /// Sets the noise power spectral density in dBm/Hz.
    pub fn noise_dbm_per_hz(mut self, v: f64) -> Self {
        self.params.noise_dbm_per_hz = v;
        self
    }

    /// Sets the edge-server coverage radius in metres.
    pub fn coverage_radius_m(mut self, v: f64) -> Self {
        self.params.coverage_radius_m = v;
        self
    }

    /// Sets the edge-to-edge backhaul rate in bits per second.
    pub fn backhaul_rate_bps(mut self, v: f64) -> Self {
        self.params.backhaul_rate_bps = v;
        self
    }

    /// Sets the minimum server-user distance floor in metres.
    pub fn min_distance_m(mut self, v: f64) -> Self {
        self.params.min_distance_m = v;
        self
    }

    /// Validates and returns the parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::InvalidParameter`] if any field is invalid.
    pub fn build(self) -> Result<RadioParams, WirelessError> {
        self.params.validate()?;
        Ok(self.params)
    }
}

impl Default for RadioParamsBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dbm_conversions_round_trip() {
        for dbm in [-30.0, 0.0, 10.0, 43.0] {
            let w = dbm_to_watts(dbm);
            assert!((watts_to_dbm(w) - dbm).abs() < 1e-9);
        }
    }

    #[test]
    fn paper_defaults_match_section_vii() {
        let p = RadioParams::paper_defaults();
        assert_eq!(p.total_bandwidth_hz, 400.0e6);
        assert_eq!(p.total_power_dbm, 43.0);
        assert_eq!(p.activity_probability, 0.5);
        assert_eq!(p.antenna_gain, 1.0);
        assert_eq!(p.path_loss_exponent, 4.0);
        assert_eq!(p.coverage_radius_m, 275.0);
        assert_eq!(p.backhaul_rate_bps, 10.0e9);
        assert!(p.validate().is_ok());
        // 43 dBm is about 20 W.
        assert!((p.total_power_w() - 19.952623149688797).abs() < 1e-9);
    }

    #[test]
    fn builder_overrides_fields() {
        let p = RadioParams::builder()
            .total_bandwidth_hz(100.0e6)
            .total_power_dbm(30.0)
            .activity_probability(1.0)
            .antenna_gain(2.0)
            .path_loss_exponent(3.5)
            .noise_dbm_per_hz(-170.0)
            .coverage_radius_m(500.0)
            .backhaul_rate_bps(1.0e9)
            .min_distance_m(0.5)
            .build()
            .unwrap();
        assert_eq!(p.total_bandwidth_hz, 100.0e6);
        assert_eq!(p.total_power_dbm, 30.0);
        assert_eq!(p.activity_probability, 1.0);
        assert_eq!(p.antenna_gain, 2.0);
        assert_eq!(p.path_loss_exponent, 3.5);
        assert_eq!(p.noise_dbm_per_hz, -170.0);
        assert_eq!(p.coverage_radius_m, 500.0);
        assert_eq!(p.backhaul_rate_bps, 1.0e9);
        assert_eq!(p.min_distance_m, 0.5);
    }

    #[test]
    fn validation_rejects_nonsense() {
        assert!(RadioParams::builder()
            .total_bandwidth_hz(0.0)
            .build()
            .is_err());
        assert!(RadioParams::builder()
            .activity_probability(1.5)
            .build()
            .is_err());
        assert!(RadioParams::builder()
            .path_loss_exponent(-4.0)
            .build()
            .is_err());
        assert!(RadioParams::builder()
            .coverage_radius_m(f64::NAN)
            .build()
            .is_err());
        assert!(RadioParams::builder()
            .backhaul_rate_bps(-1.0)
            .build()
            .is_err());
        assert!(RadioParams::builder().min_distance_m(0.0).build().is_err());
        assert!(RadioParams::builder()
            .noise_dbm_per_hz(f64::INFINITY)
            .build()
            .is_err());
        assert!(RadioParams::builder()
            .total_power_dbm(f64::NAN)
            .build()
            .is_err());
        assert!(RadioParams::builder().antenna_gain(0.0).build().is_err());
    }

    #[test]
    fn default_is_paper_defaults() {
        assert_eq!(RadioParams::default(), RadioParams::paper_defaults());
    }
}

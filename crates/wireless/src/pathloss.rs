//! Large-scale path-loss models.
//!
//! Eq. (1) of the paper uses a power-law attenuation `γ₀ · d^{-α₀}` between
//! an edge server and a user at distance `d`. [`PowerLawPathLoss`] implements
//! exactly that model; the [`PathLossModel`] trait leaves room for
//! alternative models (e.g. 3GPP urban-macro) in downstream experiments.

use crate::error::WirelessError;
use crate::params::RadioParams;

/// A large-scale path-loss (channel gain) model.
///
/// Implementations return the *linear* channel power gain, i.e. the factor
/// multiplying the transmit power in the received-signal power. Gains are
/// dimensionless and must be positive and finite for all positive distances.
pub trait PathLossModel: std::fmt::Debug {
    /// Linear channel power gain at distance `distance_m` (metres).
    fn gain(&self, distance_m: f64) -> f64;

    /// Path loss in dB at distance `distance_m`, i.e. `-10·log10(gain)`.
    fn path_loss_db(&self, distance_m: f64) -> f64 {
        -10.0 * self.gain(distance_m).log10()
    }
}

/// The power-law path loss `γ₀ · d^{-α₀}` of Eq. (1).
///
/// The gain is clamped at the distance floor `min_distance_m` to avoid the
/// singularity at `d = 0` (a standard convention; the evaluation never
/// places a user closer than ~1 m from a base station).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLawPathLoss {
    /// Antenna-related gain factor `γ₀`.
    pub antenna_gain: f64,
    /// Path-loss exponent `α₀`.
    pub exponent: f64,
    /// Distance floor in metres.
    pub min_distance_m: f64,
}

impl PowerLawPathLoss {
    /// Creates a power-law model.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::InvalidParameter`] if any argument is not a
    /// strictly positive finite number.
    pub fn new(
        antenna_gain: f64,
        exponent: f64,
        min_distance_m: f64,
    ) -> Result<Self, WirelessError> {
        for (name, v) in [
            ("antenna_gain", antenna_gain),
            ("exponent", exponent),
            ("min_distance_m", min_distance_m),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(WirelessError::InvalidParameter { name, value: v });
            }
        }
        Ok(Self {
            antenna_gain,
            exponent,
            min_distance_m,
        })
    }

    /// Builds the model from a [`RadioParams`] bundle.
    pub fn from_params(params: &RadioParams) -> Self {
        Self {
            antenna_gain: params.antenna_gain,
            exponent: params.path_loss_exponent,
            min_distance_m: params.min_distance_m,
        }
    }
}

impl PathLossModel for PowerLawPathLoss {
    fn gain(&self, distance_m: f64) -> f64 {
        let d = distance_m.max(self.min_distance_m);
        self.antenna_gain * d.powf(-self.exponent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gain_decreases_with_distance() {
        let pl = PowerLawPathLoss::new(1.0, 4.0, 1.0).unwrap();
        let mut prev = pl.gain(1.0);
        for d in [2.0, 5.0, 10.0, 50.0, 275.0, 1000.0] {
            let g = pl.gain(d);
            assert!(g < prev, "gain must be strictly decreasing");
            assert!(g > 0.0 && g.is_finite());
            prev = g;
        }
    }

    #[test]
    fn gain_matches_closed_form() {
        let pl = PowerLawPathLoss::new(2.0, 4.0, 1.0).unwrap();
        let d = 10.0;
        assert!((pl.gain(d) - 2.0 * d.powf(-4.0)).abs() < 1e-18);
    }

    #[test]
    fn distance_floor_caps_gain() {
        let pl = PowerLawPathLoss::new(1.0, 4.0, 1.0).unwrap();
        assert_eq!(pl.gain(0.0), pl.gain(1.0));
        assert_eq!(pl.gain(0.5), pl.gain(1.0));
    }

    #[test]
    fn path_loss_db_is_positive_beyond_reference() {
        let pl = PowerLawPathLoss::new(1.0, 4.0, 1.0).unwrap();
        // At 10 m with exponent 4, loss is 40 dB.
        assert!((pl.path_loss_db(10.0) - 40.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(PowerLawPathLoss::new(0.0, 4.0, 1.0).is_err());
        assert!(PowerLawPathLoss::new(1.0, -1.0, 1.0).is_err());
        assert!(PowerLawPathLoss::new(1.0, 4.0, 0.0).is_err());
        assert!(PowerLawPathLoss::new(f64::NAN, 4.0, 1.0).is_err());
    }

    #[test]
    fn from_params_uses_paper_values() {
        let params = RadioParams::paper_defaults();
        let pl = PowerLawPathLoss::from_params(&params);
        assert_eq!(pl.antenna_gain, 1.0);
        assert_eq!(pl.exponent, 4.0);
        assert_eq!(pl.min_distance_m, 1.0);
    }
}

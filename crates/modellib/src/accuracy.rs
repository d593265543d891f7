//! Accuracy vs. number of frozen bottom layers (Fig. 1 substitution).
//!
//! The paper motivates parameter sharing with a fine-tuning experiment:
//! ResNet-50 pre-trained on CIFAR-100 is fine-tuned for two downstream
//! superclasses ("transportation" and "animal") while freezing a growing
//! number of bottom layers. Accuracy degrades only slightly — about 4.05%
//! for one task and 5.2% for the other even when ~90% of the trainable
//! layers (97 of 107) are frozen, for an average drop of ≈4.7%.
//!
//! Reproducing the figure exactly requires GPU fine-tuning on CIFAR-100,
//! which is out of scope for a simulation-only reproduction. Instead,
//! [`FrozenLayerAccuracy`] is an analytic degradation model calibrated to
//! the end-points the paper reports: accuracy is flat for shallow freezing
//! and bends downward convexly as the freeze depth approaches the full
//! network. The model exists so that the Fig. 1 experiment driver has a
//! concrete curve to emit, and so that library builders can attach an
//! accuracy estimate to each generated downstream model.

use crate::error::ModelLibError;

/// Analytic accuracy-degradation model for bottom-layer freezing.
///
/// `accuracy(frozen) = base_accuracy − max_drop · (frozen / total)^shape`
///
/// with `shape > 1` giving the convex "barely drops until most layers are
/// frozen" behaviour visible in the paper's Fig. 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrozenLayerAccuracy {
    /// Accuracy of full fine-tuning (no frozen layers), in `[0, 1]`.
    pub base_accuracy: f64,
    /// Accuracy drop when every trainable layer is frozen, in `[0, 1]`.
    pub max_drop: f64,
    /// Convexity exponent (`> 1` keeps the curve flat initially).
    pub shape: f64,
    /// Number of trainable layers in the backbone.
    pub total_layers: usize,
}

impl FrozenLayerAccuracy {
    /// The calibration used for the Fig. 1 reproduction:
    /// "transportation" fine-tuned from ResNet-50 (107 trainable layers),
    /// 97% base accuracy, 4.05% drop at 90% frozen.
    #[expect(
        clippy::expect_used,
        reason = "static calibration inside the valid range"
    )]
    pub fn paper_transportation() -> Self {
        Self::calibrated(0.97, 107, 97, 0.0405).expect("static calibration is valid")
    }

    /// The "animal" task calibration: 95% base accuracy, 5.2% drop at 90%
    /// frozen depth.
    #[expect(
        clippy::expect_used,
        reason = "static calibration inside the valid range"
    )]
    pub fn paper_animal() -> Self {
        Self::calibrated(0.95, 107, 97, 0.052).expect("static calibration is valid")
    }

    /// Builds a model that passes through a measured point: accuracy drops
    /// by `drop_at_point` when `frozen_at_point` of `total_layers` layers
    /// are frozen, using a fixed convexity of 3 (cubic) which matches the
    /// "flat then bends" shape of the paper's curve.
    ///
    /// # Errors
    ///
    /// Returns [`ModelLibError::InvalidConfig`] if any argument is outside
    /// its valid range.
    pub fn calibrated(
        base_accuracy: f64,
        total_layers: usize,
        frozen_at_point: usize,
        drop_at_point: f64,
    ) -> Result<Self, ModelLibError> {
        if !(0.0..=1.0).contains(&base_accuracy) {
            return Err(ModelLibError::InvalidConfig {
                reason: format!("base accuracy {base_accuracy} outside [0,1]"),
            });
        }
        if total_layers == 0 || frozen_at_point == 0 || frozen_at_point > total_layers {
            return Err(ModelLibError::InvalidConfig {
                reason: "frozen_at_point must be in 1..=total_layers".into(),
            });
        }
        if !(0.0..=1.0).contains(&drop_at_point) {
            return Err(ModelLibError::InvalidConfig {
                reason: format!("accuracy drop {drop_at_point} outside [0,1]"),
            });
        }
        let shape = 3.0;
        let frac = frozen_at_point as f64 / total_layers as f64;
        // Solve drop_at_point = max_drop * frac^shape for max_drop.
        let max_drop = drop_at_point / frac.powf(shape);
        Ok(Self {
            base_accuracy,
            max_drop,
            shape,
            total_layers,
        })
    }

    /// Predicted accuracy with `frozen_layers` bottom layers frozen.
    ///
    /// Freezing more layers than exist saturates at the full-freeze value.
    pub fn accuracy(&self, frozen_layers: usize) -> f64 {
        let frac = (frozen_layers.min(self.total_layers)) as f64 / self.total_layers as f64;
        (self.base_accuracy - self.max_drop * frac.powf(self.shape)).max(0.0)
    }

    /// Accuracy drop relative to full fine-tuning.
    pub fn drop(&self, frozen_layers: usize) -> f64 {
        self.base_accuracy - self.accuracy(frozen_layers)
    }

    /// Emits `(frozen_layers, accuracy)` samples from 0 to `total_layers`
    /// inclusive — the series plotted in Fig. 1.
    pub fn curve(&self) -> Vec<(usize, f64)> {
        (0..=self.total_layers)
            .map(|f| (f, self.accuracy(f)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_matches_paper_endpoints() {
        let t = FrozenLayerAccuracy::paper_transportation();
        // At 97 frozen layers the drop must be (close to) 4.05%.
        assert!((t.drop(97) - 0.0405).abs() < 1e-9);
        let a = FrozenLayerAccuracy::paper_animal();
        assert!((a.drop(97) - 0.052).abs() < 1e-9);
        // Average drop at the 90% freeze point is about 4.6-4.7%, as stated
        // in the paper's introduction.
        let avg = (t.drop(97) + a.drop(97)) / 2.0;
        assert!((avg - 0.047).abs() < 0.005, "average drop {avg}");
    }

    #[test]
    fn accuracy_is_monotone_nonincreasing_in_frozen_layers() {
        let m = FrozenLayerAccuracy::paper_transportation();
        let curve = m.curve();
        assert_eq!(curve.len(), 108);
        for w in curve.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-12);
        }
        assert_eq!(curve[0].1, m.base_accuracy);
    }

    #[test]
    fn shallow_freezing_barely_hurts() {
        let m = FrozenLayerAccuracy::paper_transportation();
        // Freezing the first third of the network costs well under 1%.
        assert!(m.drop(35) < 0.01);
        // Freezing everything costs more than the 90% point.
        assert!(m.drop(107) > m.drop(97));
    }

    #[test]
    fn freezing_beyond_total_layers_saturates() {
        let m = FrozenLayerAccuracy::paper_animal();
        assert_eq!(m.accuracy(107), m.accuracy(500));
    }

    #[test]
    fn accuracy_never_goes_negative() {
        let m = FrozenLayerAccuracy {
            base_accuracy: 0.1,
            max_drop: 5.0,
            shape: 1.0,
            total_layers: 10,
        };
        assert_eq!(m.accuracy(10), 0.0);
    }

    #[test]
    fn calibration_rejects_bad_input() {
        assert!(FrozenLayerAccuracy::calibrated(1.5, 107, 97, 0.04).is_err());
        assert!(FrozenLayerAccuracy::calibrated(0.9, 0, 0, 0.04).is_err());
        assert!(FrozenLayerAccuracy::calibrated(0.9, 107, 0, 0.04).is_err());
        assert!(FrozenLayerAccuracy::calibrated(0.9, 107, 200, 0.04).is_err());
        assert!(FrozenLayerAccuracy::calibrated(0.9, 107, 97, -0.1).is_err());
    }
}

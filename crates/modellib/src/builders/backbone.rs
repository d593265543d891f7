//! ResNet-like backbone descriptions.
//!
//! The paper builds its model library from the ResNet family (ResNet-18,
//! ResNet-34, ResNet-50) pre-trained on CIFAR-100. The placement problem
//! only consumes per-layer *sizes* and the freeze structure, never the
//! weights, so [`Backbone`] describes a backbone as an ordered list of layer
//! sizes whose totals match the real networks (≈46.8 MB, ≈87.2 MB and
//! ≈102.2 MB at fp32).

use crate::error::ModelLibError;

/// A backbone architecture: an ordered list of trainable layers with sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct Backbone {
    name: String,
    layer_sizes_bytes: Vec<u64>,
    /// Inclusive range `[min, max]` of bottom layers that downstream models
    /// freeze (Section VII-A gives per-backbone ranges).
    freeze_range: (usize, usize),
    /// Size of the task-specific classification head added by fine-tuning.
    head_size_bytes: u64,
}

impl Backbone {
    /// Creates a backbone from explicit layer sizes.
    ///
    /// # Errors
    ///
    /// Returns [`ModelLibError::InvalidConfig`] if there are no layers, a
    /// layer has zero size, or the freeze range is empty or exceeds the
    /// number of layers.
    pub fn new(
        name: impl Into<String>,
        layer_sizes_bytes: Vec<u64>,
        freeze_range: (usize, usize),
        head_size_bytes: u64,
    ) -> Result<Self, ModelLibError> {
        let name = name.into();
        if layer_sizes_bytes.is_empty() {
            return Err(ModelLibError::InvalidConfig {
                reason: format!("backbone {name} has no layers"),
            });
        }
        if layer_sizes_bytes.contains(&0) {
            return Err(ModelLibError::InvalidConfig {
                reason: format!("backbone {name} has a zero-sized layer"),
            });
        }
        let (lo, hi) = freeze_range;
        if lo == 0 || lo > hi || hi >= layer_sizes_bytes.len() {
            return Err(ModelLibError::InvalidConfig {
                reason: format!(
                    "backbone {name}: freeze range {lo}..={hi} invalid for {} layers",
                    layer_sizes_bytes.len()
                ),
            });
        }
        if head_size_bytes == 0 {
            return Err(ModelLibError::InvalidConfig {
                reason: format!("backbone {name} has a zero-sized head"),
            });
        }
        Ok(Self {
            name,
            layer_sizes_bytes,
            freeze_range,
            head_size_bytes,
        })
    }

    /// Synthesises a backbone whose layer sizes grow with depth (as in real
    /// ResNets, where later stages hold most parameters) and sum to
    /// `total_bytes`.
    ///
    /// # Errors
    ///
    /// See [`Backbone::new`].
    pub fn synthetic(
        name: impl Into<String>,
        num_layers: usize,
        total_bytes: u64,
        freeze_range: (usize, usize),
        head_size_bytes: u64,
    ) -> Result<Self, ModelLibError> {
        let name = name.into();
        if num_layers == 0 {
            return Err(ModelLibError::InvalidConfig {
                reason: format!("backbone {name} needs at least one layer"),
            });
        }
        // Depth-increasing weights: w_l = 1 + 8 (l / (L-1))^2.
        let weights: Vec<f64> = (0..num_layers)
            .map(|l| {
                let x = if num_layers > 1 {
                    l as f64 / (num_layers - 1) as f64
                } else {
                    0.0
                };
                1.0 + 8.0 * x * x
            })
            .collect();
        let weight_sum: f64 = weights.iter().sum();
        let mut sizes: Vec<u64> = weights
            .iter()
            .map(|w| ((w / weight_sum) * total_bytes as f64).round().max(1.0) as u64)
            .collect();
        // Fix rounding drift so the sizes sum exactly to total_bytes.
        let current: u64 = sizes.iter().sum();
        let last = sizes.len() - 1;
        if current > total_bytes {
            let excess = current - total_bytes;
            sizes[last] = sizes[last].saturating_sub(excess).max(1);
        } else {
            sizes[last] += total_bytes - current;
        }
        Self::new(name, sizes, freeze_range, head_size_bytes)
    }

    /// ResNet-18-like backbone: 44 trainable layers, ≈46.8 MB, freeze range
    /// [29, 40] (Section VII-A).
    #[expect(clippy::expect_used, reason = "static preset inside the valid range")]
    pub fn resnet18() -> Self {
        Self::synthetic("resnet18", 44, 46_800_000, (29, 40), 205_000)
            .expect("static preset is valid")
    }

    /// ResNet-34-like backbone: 76 trainable layers, ≈87.2 MB, freeze range
    /// [49, 72].
    #[expect(clippy::expect_used, reason = "static preset inside the valid range")]
    pub fn resnet34() -> Self {
        Self::synthetic("resnet34", 76, 87_200_000, (49, 72), 205_000)
            .expect("static preset is valid")
    }

    /// ResNet-50-like backbone: 107 trainable layers, ≈102.2 MB, freeze
    /// range [87, 106].
    #[expect(clippy::expect_used, reason = "static preset inside the valid range")]
    pub fn resnet50() -> Self {
        Self::synthetic("resnet50", 107, 102_200_000, (87, 106), 820_000)
            .expect("static preset is valid")
    }

    /// The three-backbone family used throughout the paper's evaluation.
    pub fn paper_family() -> Vec<Self> {
        vec![Self::resnet18(), Self::resnet34(), Self::resnet50()]
    }

    /// Backbone name (e.g. `"resnet50"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of trainable layers.
    pub fn num_layers(&self) -> usize {
        self.layer_sizes_bytes.len()
    }

    /// Per-layer sizes in bytes, bottom (input-side) first.
    pub fn layer_sizes_bytes(&self) -> &[u64] {
        &self.layer_sizes_bytes
    }

    /// Total backbone size in bytes (excluding the task head).
    pub fn total_bytes(&self) -> u64 {
        self.layer_sizes_bytes.iter().sum()
    }

    /// Inclusive `[min, max]` freeze-depth range used for downstream models.
    pub fn freeze_range(&self) -> (usize, usize) {
        self.freeze_range
    }

    /// Size of the task-specific head appended by fine-tuning, in bytes.
    pub fn head_size_bytes(&self) -> u64 {
        self.head_size_bytes
    }

    /// Total bytes of the first `depth` (frozen) layers.
    pub fn prefix_bytes(&self, depth: usize) -> u64 {
        self.layer_sizes_bytes.iter().take(depth).copied().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_scale() {
        let r18 = Backbone::resnet18();
        let r34 = Backbone::resnet34();
        let r50 = Backbone::resnet50();
        assert_eq!(r18.num_layers(), 44);
        assert_eq!(r34.num_layers(), 76);
        assert_eq!(r50.num_layers(), 107);
        assert_eq!(r18.total_bytes(), 46_800_000);
        assert_eq!(r34.total_bytes(), 87_200_000);
        assert_eq!(r50.total_bytes(), 102_200_000);
        assert_eq!(r18.freeze_range(), (29, 40));
        assert_eq!(r34.freeze_range(), (49, 72));
        assert_eq!(r50.freeze_range(), (87, 106));
        assert_eq!(Backbone::paper_family().len(), 3);
    }

    #[test]
    fn layer_sizes_grow_with_depth() {
        let r50 = Backbone::resnet50();
        let sizes = r50.layer_sizes_bytes();
        assert!(sizes.last().unwrap() > sizes.first().unwrap());
        // Weakly monotone apart from the rounding fix on the last layer.
        for w in sizes.windows(2).take(sizes.len() - 2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn prefix_bytes_is_partial_sum() {
        let r18 = Backbone::resnet18();
        assert_eq!(r18.prefix_bytes(0), 0);
        assert_eq!(r18.prefix_bytes(r18.num_layers()), r18.total_bytes());
        let manual: u64 = r18.layer_sizes_bytes().iter().take(10).sum();
        assert_eq!(r18.prefix_bytes(10), manual);
        // Requesting more than available saturates.
        assert_eq!(r18.prefix_bytes(10_000), r18.total_bytes());
    }

    #[test]
    fn frozen_prefix_dominates_model_size_at_paper_depths() {
        // At the paper's freeze depths, the frozen prefix should account for
        // the bulk of the backbone (that is what makes sharing worthwhile).
        for bb in Backbone::paper_family() {
            let (lo, _) = bb.freeze_range();
            let frac = bb.prefix_bytes(lo) as f64 / bb.total_bytes() as f64;
            assert!(
                frac > 0.25,
                "{}: frozen fraction {frac} too small",
                bb.name()
            );
        }
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        assert!(Backbone::new("x", vec![], (1, 2), 10).is_err());
        assert!(Backbone::new("x", vec![0, 5], (1, 1), 10).is_err());
        assert!(Backbone::new("x", vec![5, 5], (0, 1), 10).is_err());
        assert!(Backbone::new("x", vec![5, 5], (1, 5), 10).is_err());
        assert!(Backbone::new("x", vec![5, 5], (1, 1), 0).is_err());
        assert!(Backbone::synthetic("x", 0, 100, (1, 1), 10).is_err());
    }

    #[test]
    fn synthetic_totals_are_exact() {
        let bb = Backbone::synthetic("t", 13, 1_000_003, (3, 9), 77).unwrap();
        assert_eq!(bb.total_bytes(), 1_000_003);
        assert_eq!(bb.head_size_bytes(), 77);
        assert_eq!(bb.name(), "t");
    }
}

//! Special-case library builder: bottom-layer freezing from a small fixed
//! set of pre-trained backbones (Section V and VII-A of the paper).
//!
//! Every downstream model freezes the first `F` layers of its backbone
//! (with `F` drawn uniformly from the backbone's paper-specified range) and
//! fine-tunes the remaining layers plus a small task head. The frozen
//! prefix layers become *shared* parameter blocks — identical across all
//! siblings of the same backbone — while the fine-tuned suffix and head are
//! *specific* blocks unique to each model.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::builders::backbone::Backbone;
use crate::library::{ModelLibrary, ModelLibraryBuilder};

/// The 20 CIFAR-100 superclasses, used to give generated models meaningful
/// task names.
pub(crate) const CIFAR100_SUPERCLASSES: [&str; 20] = [
    "aquatic mammals",
    "fish",
    "flowers",
    "food containers",
    "fruit and vegetables",
    "household electrical devices",
    "household furniture",
    "insects",
    "large carnivores",
    "large man-made outdoor things",
    "large natural outdoor scenes",
    "large omnivores and herbivores",
    "medium-sized mammals",
    "non-insect invertebrates",
    "people",
    "reptiles",
    "small mammals",
    "trees",
    "vehicles 1",
    "vehicles 2",
];

/// Returns the task label of the `class_index`-th CIFAR-100-like class
/// (5 classes per superclass, 100 classes total, then wrapping).
pub(crate) fn class_label(class_index: usize) -> String {
    let superclass = CIFAR100_SUPERCLASSES[(class_index / 5) % CIFAR100_SUPERCLASSES.len()];
    format!("{superclass}/c{}", class_index % 5)
}

/// The set of freeze depths models may use within `[lo, hi]`: either every
/// integer (when `distinct` is `None`) or `n` evenly spaced values.
pub(crate) fn freeze_depth_choices(lo: usize, hi: usize, distinct: Option<usize>) -> Vec<usize> {
    match distinct {
        None => (lo..=hi).collect(),
        Some(n) => {
            let n = n.clamp(1, hi - lo + 1);
            if n == 1 {
                return vec![hi];
            }
            (0..n).map(|j| lo + (j * (hi - lo)) / (n - 1)).collect()
        }
    }
}

/// Builder for the special-case parameter-sharing library.
///
/// ```
/// use trimcaching_modellib::builders::SpecialCaseBuilder;
///
/// let library = SpecialCaseBuilder::paper_setup()
///     .models_per_backbone(10)
///     .build(7);
/// assert_eq!(library.num_models(), 30);
/// ```
#[derive(Debug, Clone)]
pub struct SpecialCaseBuilder {
    backbones: Vec<Backbone>,
    models_per_backbone: usize,
    distinct_freeze_depths: Option<usize>,
}

impl SpecialCaseBuilder {
    /// The paper's setup: ResNet-18/34/50 backbones, 100 downstream models
    /// each (a 300-model library).
    pub fn paper_setup() -> Self {
        Self {
            backbones: Backbone::paper_family(),
            models_per_backbone: 100,
            distinct_freeze_depths: Some(4),
        }
    }

    /// Builds from a custom set of backbones.
    pub fn with_backbones(backbones: Vec<Backbone>) -> Self {
        Self {
            backbones,
            models_per_backbone: 100,
            distinct_freeze_depths: Some(4),
        }
    }

    /// Sets how many downstream models are derived from each backbone.
    pub fn models_per_backbone(mut self, n: usize) -> Self {
        self.models_per_backbone = n;
        self
    }

    /// Controls how many distinct freeze depths each backbone's downstream
    /// models use.
    ///
    /// With `Some(n)` the freeze depth of every model is drawn from `n`
    /// evenly spaced values inside the backbone's paper range — mirroring
    /// the practice of freezing at architectural stage boundaries and
    /// keeping the shared-block combination space of TrimCaching Spec
    /// small. With `None` the depth is drawn uniformly over every integer
    /// in the range, maximising the diversity of shared prefixes.
    pub fn distinct_freeze_depths(mut self, n: Option<usize>) -> Self {
        self.distinct_freeze_depths = n;
        self
    }

    /// The backbones the library will be derived from.
    pub fn backbones(&self) -> &[Backbone] {
        &self.backbones
    }

    /// Generates the library. The `seed` controls the per-model freeze
    /// depths; the same seed always produces the same library.
    ///
    /// # Panics
    ///
    /// Panics if the builder has no backbones or `models_per_backbone` is
    /// zero (both are configuration errors of the caller).
    #[expect(
        clippy::expect_used,
        reason = "generated models always have blocks, and the asserts above guarantee at least one model"
    )]
    pub fn build(&self, seed: u64) -> ModelLibrary {
        assert!(
            !self.backbones.is_empty(),
            "special-case builder needs at least one backbone"
        );
        assert!(
            self.models_per_backbone > 0,
            "special-case builder needs at least one model per backbone"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut builder = ModelLibraryBuilder::new();
        let mut class_counter = 0usize;
        for bb in &self.backbones {
            let (lo, hi) = bb.freeze_range();
            let depth_choices = freeze_depth_choices(lo, hi, self.distinct_freeze_depths);
            for n in 0..self.models_per_backbone {
                let freeze_depth = depth_choices[rng.gen_range(0..depth_choices.len())];
                let mut blocks: Vec<(String, u64)> = Vec::with_capacity(bb.num_layers() + 1);
                // Shared frozen prefix: identical labels across siblings.
                for (l, &size) in bb.layer_sizes_bytes().iter().enumerate().take(freeze_depth) {
                    blocks.push((format!("{}/pretrained/layer{:03}", bb.name(), l), size));
                }
                // Fine-tuned suffix: unique per model.
                for (l, &size) in bb.layer_sizes_bytes().iter().enumerate().skip(freeze_depth) {
                    blocks.push((
                        format!("{}/m{:03}/finetuned/layer{:03}", bb.name(), n, l),
                        size,
                    ));
                }
                // Task head: unique per model.
                blocks.push((
                    format!("{}/m{:03}/head", bb.name(), n),
                    bb.head_size_bytes(),
                ));
                let task = class_label(class_counter);
                class_counter += 1;
                builder
                    .add_model_with_blocks(format!("{}-ft-{:03}", bb.name(), n), task, &blocks)
                    .expect("generated model definitions are valid");
            }
        }
        builder
            .build()
            .expect("special-case builder always adds at least one model")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelId;

    #[test]
    fn paper_setup_produces_300_models() {
        let lib = SpecialCaseBuilder::paper_setup().build(1);
        assert_eq!(lib.num_models(), 300);
        assert!(lib.sharing_savings_ratio() > 0.3);
    }

    #[test]
    fn builds_are_deterministic_in_the_seed() {
        let b = SpecialCaseBuilder::paper_setup().models_per_backbone(5);
        let a = b.build(99);
        let c = b.build(99);
        assert_eq!(a, c);
        let d = b.build(100);
        assert_ne!(a, d);
    }

    #[test]
    fn shared_blocks_are_exactly_the_frozen_prefixes() {
        let lib = SpecialCaseBuilder::paper_setup()
            .models_per_backbone(10)
            .build(3);
        // Every shared block label must come from a pretrained prefix.
        for b in lib.shared_blocks() {
            let label = lib.block(b).unwrap().label().to_string();
            assert!(
                label.contains("/pretrained/"),
                "unexpected shared block {label}"
            );
        }
        // Specific blocks are fine-tuned layers, heads, or the rare
        // pretrained layer that only the single deepest-freezing sibling
        // reaches (such a layer is contained in one model only and is
        // therefore, by definition, not shared).
        for b in lib.specific_blocks() {
            let label = lib.block(b).unwrap().label().to_string();
            if label.contains("/pretrained/") {
                assert_eq!(lib.models_of_block(b).unwrap().len(), 1);
            } else {
                assert!(
                    label.contains("/finetuned/") || label.ends_with("/head"),
                    "unexpected specific block {label}"
                );
            }
        }
    }

    #[test]
    fn shared_block_count_is_independent_of_library_scale() {
        // The defining property of the special case: growing the library
        // does not grow the set of shared blocks beyond the backbone layers.
        let small = SpecialCaseBuilder::paper_setup()
            .models_per_backbone(10)
            .build(5);
        let large = SpecialCaseBuilder::paper_setup()
            .models_per_backbone(60)
            .build(5);
        let max_possible: usize = Backbone::paper_family()
            .iter()
            .map(|b| b.freeze_range().1)
            .sum();
        assert!(small.shared_blocks().len() <= max_possible);
        assert!(large.shared_blocks().len() <= max_possible);
        // More models can only reveal more of the (bounded) prefix blocks.
        assert!(large.shared_blocks().len() >= small.shared_blocks().len());
    }

    #[test]
    fn model_sizes_match_backbone_plus_head() {
        let bb = Backbone::resnet18();
        let lib = SpecialCaseBuilder::with_backbones(vec![bb.clone()])
            .models_per_backbone(4)
            .build(11);
        for id in lib.model_ids() {
            let size = lib.model_size_bytes(id).unwrap();
            assert_eq!(size, bb.total_bytes() + bb.head_size_bytes());
        }
    }

    #[test]
    fn freeze_depths_fall_in_the_paper_range() {
        let bb = Backbone::resnet50();
        let lib = SpecialCaseBuilder::with_backbones(vec![bb.clone()])
            .models_per_backbone(30)
            .build(17);
        let (lo, hi) = bb.freeze_range();
        for id in lib.model_ids() {
            let shared = lib.shared_blocks_of_model(id).unwrap().len();
            // The shared prefix of a model is its freeze depth, except that
            // prefixes frozen by *only this* model would show as specific;
            // with 30 siblings every depth in the range is hit, so the
            // shared prefix equals min(freeze depth, max sibling depth).
            assert!(shared <= hi, "shared prefix {shared} exceeds {hi}");
            assert!(shared >= lo.min(hi), "shared prefix {shared} below {lo}");
        }
    }

    #[test]
    fn class_labels_cycle_through_superclasses() {
        assert_eq!(class_label(0), "aquatic mammals/c0");
        assert_eq!(class_label(4), "aquatic mammals/c4");
        assert_eq!(class_label(5), "fish/c0");
        assert_eq!(class_label(99), "vehicles 2/c4");
        // Wraps around after 100 classes.
        assert_eq!(class_label(100), "aquatic mammals/c0");
    }

    #[test]
    fn subsetting_to_thirty_models_keeps_three_families() {
        // Figs. 4-5 use I = 30; build 10 per backbone directly.
        let lib = SpecialCaseBuilder::paper_setup()
            .models_per_backbone(10)
            .build(23);
        assert_eq!(lib.num_models(), 30);
        let names: Vec<_> = lib.models().map(|m| m.name().to_string()).collect();
        assert!(names.iter().any(|n| n.starts_with("resnet18")));
        assert!(names.iter().any(|n| n.starts_with("resnet34")));
        assert!(names.iter().any(|n| n.starts_with("resnet50")));
        let _ = lib.model(ModelId(29)).unwrap();
    }

    #[test]
    fn freeze_depth_choices_cover_requested_modes() {
        assert_eq!(freeze_depth_choices(3, 6, None), vec![3, 4, 5, 6]);
        assert_eq!(freeze_depth_choices(10, 40, Some(4)), vec![10, 20, 30, 40]);
        assert_eq!(freeze_depth_choices(10, 40, Some(1)), vec![40]);
        // Requesting more distinct depths than exist clamps to the range.
        assert_eq!(freeze_depth_choices(5, 7, Some(10)), vec![5, 6, 7]);
        // Every produced depth stays inside the range.
        for d in freeze_depth_choices(29, 40, Some(4)) {
            assert!((29..=40).contains(&d));
        }
    }

    #[test]
    fn distinct_freeze_depths_limits_shared_prefix_variety() {
        let quantised = SpecialCaseBuilder::paper_setup()
            .models_per_backbone(40)
            .distinct_freeze_depths(Some(3))
            .build(5);
        let uniform = SpecialCaseBuilder::paper_setup()
            .models_per_backbone(40)
            .distinct_freeze_depths(None)
            .build(5);
        let distinct_prefixes = |lib: &crate::library::ModelLibrary| {
            let mut sigs: Vec<Vec<_>> = lib
                .model_ids()
                .map(|id| lib.shared_blocks_of_model(id).unwrap())
                .collect();
            sigs.sort();
            sigs.dedup();
            sigs.len()
        };
        assert!(distinct_prefixes(&quantised) <= 9, "3 depths x 3 backbones");
        assert!(distinct_prefixes(&uniform) > distinct_prefixes(&quantised));
    }

    #[test]
    #[should_panic(expected = "at least one backbone")]
    fn empty_backbone_list_panics() {
        let _ = SpecialCaseBuilder::with_backbones(vec![]).build(0);
    }

    #[test]
    #[should_panic(expected = "at least one model")]
    fn zero_models_per_backbone_panics() {
        let _ = SpecialCaseBuilder::paper_setup()
            .models_per_backbone(0)
            .build(0);
    }
}

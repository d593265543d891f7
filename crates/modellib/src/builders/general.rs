//! General-case library builder: two-round fine-tuning per Table I of the
//! paper.
//!
//! In the general case the number of shared parameter blocks grows with the
//! library. The paper constructs this by (1) fully fine-tuning each backbone
//! on a few selected superclasses ("first round"), which creates fresh
//! parameter blocks, and then (2) fine-tuning per-class models for *related*
//! superclasses by freezing bottom layers of the first-round models, so that
//! second-round models reuse first-round blocks.
//!
//! Table I of the paper gives the mapping reproduced by
//! [`SuperclassMapping::paper_table1`]:
//!
//! | First-round superclass | Second-round superclasses |
//! |------------------------|---------------------------|
//! | fruit and vegetables   | flowers, trees |
//! | medium-sized mammals   | large carnivores, large omnivores and herbivores, people, reptiles, small mammals |
//! | vehicles 2             | large man-made outdoor things, vehicles 1 |
//!
//! Superclasses not named in Table I are fine-tuned directly from the
//! pre-trained backbone by bottom-layer freezing (as in the special case);
//! this fills the library to 100 classes per backbone while preserving the
//! "sharing grows with scale" property contributed by the first/second
//! round structure.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::builders::backbone::Backbone;
use crate::builders::special::CIFAR100_SUPERCLASSES;
use crate::library::{ModelLibrary, ModelLibraryBuilder};

/// The Table-I mapping from first-round superclasses to the second-round
/// superclasses whose models reuse their parameter blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuperclassMapping {
    /// `(first_round_superclass, second_round_superclasses)` pairs.
    pub groups: Vec<(String, Vec<String>)>,
}

impl SuperclassMapping {
    /// The exact mapping of Table I.
    pub fn paper_table1() -> Self {
        Self {
            groups: vec![
                (
                    "fruit and vegetables".to_string(),
                    vec!["flowers".to_string(), "trees".to_string()],
                ),
                (
                    "medium-sized mammals".to_string(),
                    vec![
                        "large carnivores".to_string(),
                        "large omnivores and herbivores".to_string(),
                        "people".to_string(),
                        "reptiles".to_string(),
                        "small mammals".to_string(),
                    ],
                ),
                (
                    "vehicles 2".to_string(),
                    vec![
                        "large man-made outdoor things".to_string(),
                        "vehicles 1".to_string(),
                    ],
                ),
            ],
        }
    }

    /// All superclasses covered by the mapping (first and second round).
    pub fn covered_superclasses(&self) -> Vec<&str> {
        let mut all = Vec::new();
        for (first, seconds) in &self.groups {
            all.push(first.as_str());
            all.extend(seconds.iter().map(String::as_str));
        }
        all
    }

    /// Which first-round group a superclass belongs to (if any), and whether
    /// it is the first-round superclass itself.
    fn group_of(&self, superclass: &str) -> Option<(usize, bool)> {
        for (g, (first, seconds)) in self.groups.iter().enumerate() {
            if first == superclass {
                return Some((g, true));
            }
            if seconds.iter().any(|s| s == superclass) {
                return Some((g, false));
            }
        }
        None
    }
}

/// Builder for the general-case parameter-sharing library.
///
/// ```
/// use trimcaching_modellib::builders::GeneralCaseBuilder;
///
/// let library = GeneralCaseBuilder::paper_setup()
///     .classes_per_backbone(20)
///     .build(7);
/// assert_eq!(library.num_models(), 60);
/// ```
#[derive(Debug, Clone)]
pub struct GeneralCaseBuilder {
    backbones: Vec<Backbone>,
    mapping: SuperclassMapping,
    classes_per_backbone: usize,
    distinct_freeze_depths: Option<usize>,
}

impl GeneralCaseBuilder {
    /// The paper's setup: ResNet-18/34/50, Table-I mapping, 100 classes per
    /// backbone (a 300-model library).
    pub fn paper_setup() -> Self {
        Self {
            backbones: Backbone::paper_family(),
            mapping: SuperclassMapping::paper_table1(),
            classes_per_backbone: 100,
            distinct_freeze_depths: Some(4),
        }
    }

    /// Builds from custom backbones and a custom mapping.
    pub fn with_backbones_and_mapping(
        backbones: Vec<Backbone>,
        mapping: SuperclassMapping,
    ) -> Self {
        Self {
            backbones,
            mapping,
            classes_per_backbone: 100,
            distinct_freeze_depths: Some(4),
        }
    }

    /// Sets how many class-level models are derived from each backbone.
    ///
    /// Classes are assigned to superclasses in an order that visits Table-I
    /// superclasses first, so even small libraries contain the two-round
    /// sharing structure.
    pub fn classes_per_backbone(mut self, n: usize) -> Self {
        self.classes_per_backbone = n;
        self
    }

    /// Controls how many distinct freeze depths the generated models use
    /// per backbone; see
    /// [`SpecialCaseBuilder::distinct_freeze_depths`](crate::builders::SpecialCaseBuilder::distinct_freeze_depths).
    pub fn distinct_freeze_depths(mut self, n: Option<usize>) -> Self {
        self.distinct_freeze_depths = n;
        self
    }

    /// The superclass ordering used to assign classes: Table-I first-round
    /// superclasses, then their second-round superclasses, then everything
    /// else.
    fn superclass_order(&self) -> Vec<String> {
        let mut order: Vec<String> = Vec::new();
        for (first, seconds) in &self.mapping.groups {
            order.push(first.clone());
            order.extend(seconds.iter().cloned());
        }
        for sc in CIFAR100_SUPERCLASSES {
            if !order.iter().any(|o| o == sc) {
                order.push(sc.to_string());
            }
        }
        order
    }

    /// Generates the library. The `seed` controls the per-model freeze
    /// depths; the same seed always produces the same library.
    ///
    /// # Panics
    ///
    /// Panics if the builder has no backbones or `classes_per_backbone` is
    /// zero.
    #[expect(
        clippy::expect_used,
        reason = "generated models always have blocks, and the asserts above guarantee at least one model"
    )]
    pub fn build(&self, seed: u64) -> ModelLibrary {
        assert!(
            !self.backbones.is_empty(),
            "general-case builder needs at least one backbone"
        );
        assert!(
            self.classes_per_backbone > 0,
            "general-case builder needs at least one class per backbone"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut builder = ModelLibraryBuilder::new();
        let order = self.superclass_order();
        for bb in &self.backbones {
            let (lo, hi) = bb.freeze_range();
            let depth_choices =
                crate::builders::special::freeze_depth_choices(lo, hi, self.distinct_freeze_depths);
            for c in 0..self.classes_per_backbone {
                // Round-robin over the superclass order so that even small
                // libraries span several sharing groups (the defining
                // feature of the general case); the within-superclass class
                // index advances every full pass.
                let superclass = &order[c % order.len()];
                let class_in_super = (c / order.len()) % 5;
                let task = format!("{superclass}/c{class_in_super}");
                let freeze_depth = depth_choices[rng.gen_range(0..depth_choices.len())];

                // Decide which parameter source the frozen prefix reuses.
                let (prefix_ns, suffix_role) = match self.mapping.group_of(superclass) {
                    Some((g, true)) => {
                        // First-round model: fully fine-tuned from the
                        // pre-trained backbone on this superclass. Its
                        // layers are fresh blocks shared by the whole group.
                        (format!("{}/round1/g{g}", bb.name()), "round1-specific")
                    }
                    Some((g, false)) => {
                        // Second-round model: reuses the first-round group's
                        // blocks for the frozen prefix.
                        (format!("{}/round1/g{g}", bb.name()), "round2-specific")
                    }
                    None => {
                        // Unmapped superclass: behaves like the special case,
                        // freezing the pre-trained backbone directly.
                        (format!("{}/pretrained", bb.name()), "direct-specific")
                    }
                };

                let mut blocks: Vec<(String, u64)> = Vec::with_capacity(bb.num_layers() + 1);
                for (l, &size) in bb.layer_sizes_bytes().iter().enumerate().take(freeze_depth) {
                    blocks.push((format!("{prefix_ns}/layer{l:03}"), size));
                }
                for (l, &size) in bb.layer_sizes_bytes().iter().enumerate().skip(freeze_depth) {
                    blocks.push((
                        format!("{}/{task}/{suffix_role}/layer{l:03}", bb.name()),
                        size,
                    ));
                }
                blocks.push((format!("{}/{task}/head", bb.name()), bb.head_size_bytes()));

                builder
                    .add_model_with_blocks(format!("{}-gen-{c:03}", bb.name()), task, &blocks)
                    .expect("generated model definitions are valid");
            }
        }
        builder
            .build()
            .expect("general-case builder always adds at least one model")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_setup_produces_300_models() {
        let lib = GeneralCaseBuilder::paper_setup().build(1);
        assert_eq!(lib.num_models(), 300);
        assert!(lib.sharing_savings_ratio() > 0.2);
    }

    #[test]
    fn builds_are_deterministic_in_the_seed() {
        let b = GeneralCaseBuilder::paper_setup().classes_per_backbone(10);
        assert_eq!(b.build(4), b.build(4));
        assert_ne!(b.build(4), b.build(5));
    }

    #[test]
    fn table1_mapping_matches_the_paper() {
        let m = SuperclassMapping::paper_table1();
        assert_eq!(m.groups.len(), 3);
        assert_eq!(m.groups[0].0, "fruit and vegetables");
        assert_eq!(m.groups[0].1, vec!["flowers", "trees"]);
        assert_eq!(m.groups[1].1.len(), 5);
        assert_eq!(
            m.groups[2].1,
            vec!["large man-made outdoor things", "vehicles 1"]
        );
        assert_eq!(m.covered_superclasses().len(), 12);
        assert_eq!(m.group_of("fruit and vegetables"), Some((0, true)));
        assert_eq!(m.group_of("trees"), Some((0, false)));
        assert_eq!(m.group_of("people"), Some((1, false)));
        assert_eq!(m.group_of("fish"), None);
    }

    #[test]
    fn shared_blocks_grow_with_library_scale() {
        // The defining property of the general case: unlike the special
        // case, adding models keeps adding shared blocks (second-round
        // models share first-round blocks group by group).
        let small = GeneralCaseBuilder::paper_setup()
            .classes_per_backbone(10)
            .build(5);
        let large = GeneralCaseBuilder::paper_setup()
            .classes_per_backbone(60)
            .build(5);
        assert!(
            large.shared_blocks().len() > small.shared_blocks().len(),
            "shared blocks should grow with the library ({} vs {})",
            large.shared_blocks().len(),
            small.shared_blocks().len()
        );
    }

    #[test]
    fn general_case_has_more_shared_blocks_than_special_case() {
        use crate::builders::special::SpecialCaseBuilder;
        let gen = GeneralCaseBuilder::paper_setup()
            .classes_per_backbone(100)
            .build(7);
        let spec = SpecialCaseBuilder::paper_setup()
            .models_per_backbone(100)
            .build(7);
        assert!(gen.shared_blocks().len() > spec.shared_blocks().len());
    }

    #[test]
    fn second_round_models_reuse_first_round_blocks() {
        let lib = GeneralCaseBuilder::paper_setup()
            .classes_per_backbone(40)
            .build(9);
        // Find a second-round model (superclass "flowers") and check its
        // shared prefix blocks carry the round1 namespace of group 0.
        let flower_model = lib
            .models()
            .find(|m| m.task().starts_with("flowers/"))
            .expect("a flowers model exists at 40 classes per backbone");
        let shared = lib.shared_blocks_of_model(flower_model.id()).unwrap();
        assert!(!shared.is_empty());
        let round1_shared = shared
            .iter()
            .filter(|b| lib.block(**b).unwrap().label().contains("/round1/g0/"))
            .count();
        assert!(
            round1_shared > 0,
            "flowers models must reuse round-1 fruit-and-vegetables blocks"
        );
    }

    #[test]
    fn unmapped_superclasses_share_the_pretrained_backbone() {
        let lib = GeneralCaseBuilder::paper_setup()
            .classes_per_backbone(100)
            .build(13);
        let fish_model = lib
            .models()
            .find(|m| m.task().starts_with("fish/"))
            .expect("a fish model exists in the full library");
        let shared = lib.shared_blocks_of_model(fish_model.id()).unwrap();
        assert!(shared
            .iter()
            .any(|b| lib.block(*b).unwrap().label().contains("/pretrained/")));
    }

    #[test]
    fn superclass_order_visits_table1_groups_first() {
        let b = GeneralCaseBuilder::paper_setup();
        let order = b.superclass_order();
        assert_eq!(order[0], "fruit and vegetables");
        assert_eq!(order[1], "flowers");
        assert_eq!(order.len(), 20);
        // No duplicates.
        let mut dedup = order.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 20);
    }

    #[test]
    #[should_panic(expected = "at least one backbone")]
    fn empty_backbones_panic() {
        let _ = GeneralCaseBuilder::with_backbones_and_mapping(
            vec![],
            SuperclassMapping::paper_table1(),
        )
        .build(0);
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn zero_classes_panic() {
        let _ = GeneralCaseBuilder::paper_setup()
            .classes_per_backbone(0)
            .build(0);
    }
}

//! Enumeration of shared-parameter-block combinations (the set `A` of
//! Section V-B).
//!
//! The DP-based Algorithm 2 traverses combinations of shared parameter
//! blocks: for every combination `N` it pre-commits the storage `d_N` of
//! those blocks and then solves a knapsack over the models whose shared
//! blocks are all contained in `N`. The paper bounds the traversal by
//! `2^β` with `β` the (constant) number of shared blocks in the special
//! case.
//!
//! Enumerating all `2^β` subsets is needlessly wasteful: the only
//! combinations that can ever be *used* by a placement are unions of the
//! per-model shared-block sets. [`SharingAnalysis`] therefore analyses the
//! library's sharing structure:
//!
//! * the distinct per-model shared-block sets are grouped into disjoint
//!   *sharing groups* (connected components under intersection);
//! * within a group whose sets form a chain under inclusion — the case for
//!   bottom-layer freezing, where deeper freezes strictly extend shallower
//!   ones — the useful choices are exactly the distinct prefixes;
//! * within a non-chain group every union of its distinct sets is a
//!   choice (this is the exponential blow-up the paper attributes to the
//!   general case, and it is capped by the configured budget).
//!
//! A *combination* is then one choice (possibly "nothing") per group, and
//! the total number of combinations is the product of per-group choice
//! counts — exactly the reachable subsets of `A`, typically a tiny
//! fraction of `2^β`.

use std::collections::BTreeSet;

use trimcaching_modellib::{BlockId, ModelId, ModelLibrary};

use crate::error::PlacementError;

/// One selectable choice within a sharing group: a concrete set of shared
/// blocks plus its total size.
#[derive(Debug, Clone)]
struct Choice {
    blocks: BTreeSet<BlockId>,
    bytes: u64,
}

/// A disjoint group of interrelated shared blocks and its selectable
/// choices (excluding the implicit "select nothing" choice).
#[derive(Debug, Clone)]
struct Group {
    choices: Vec<Choice>,
}

/// Per-model metadata: which group the model's shared blocks belong to and
/// at which choices of that group the model becomes placeable.
#[derive(Debug, Clone)]
enum ModelSharing {
    /// The model has no shared blocks: it is placeable under any
    /// combination.
    Unshared,
    /// The model's shared blocks live in `group`; `eligible_at[c]` says
    /// whether they are contained in the group's choice `c` (0-based,
    /// excluding the "nothing" choice, under which the model is never
    /// placeable).
    Grouped {
        group: usize,
        eligible_at: Vec<bool>,
    },
}

/// The sharing structure of a library, ready for combination enumeration.
#[derive(Debug, Clone)]
pub(crate) struct SharingAnalysis {
    groups: Vec<Group>,
    model_sharing: Vec<ModelSharing>,
}

/// One combination `N`: a selected choice per group (`None` = nothing from
/// that group).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Combination {
    /// Per-group selected choice index, or `None`.
    levels: Vec<Option<usize>>,
    /// Total bytes `d_N` of the selected shared blocks.
    bytes: u64,
}

impl Combination {
    /// Total size `d_N` of the combination in bytes.
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl SharingAnalysis {
    /// Analyses the sharing structure of `library`.
    ///
    /// `max_combinations` bounds the total number of combinations that will
    /// be enumerated; `max_group_subsets` bounds the `2^c` union expansion
    /// within a single non-chain group.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::InstanceTooLarge`] when either budget is
    /// exceeded — the situation the paper describes as the general case in
    /// which TrimCaching Spec degenerates to exponential complexity.
    pub(crate) fn analyze(
        library: &ModelLibrary,
        max_combinations: u128,
        max_group_subsets: u32,
    ) -> Result<Self, PlacementError> {
        // 1. Per-model shared-block signatures.
        let signatures: Vec<BTreeSet<BlockId>> = library
            .model_ids()
            .map(|id| -> Result<BTreeSet<BlockId>, PlacementError> {
                Ok(library.shared_blocks_of_model(id)?.into_iter().collect())
            })
            .collect::<Result<_, _>>()?;

        // 2. Distinct non-empty signatures.
        let mut distinct: Vec<BTreeSet<BlockId>> = Vec::new();
        for sig in signatures.iter().filter(|s| !s.is_empty()) {
            if !distinct.contains(sig) {
                distinct.push(sig.clone());
            }
        }

        // 3. Group distinct signatures into connected components under
        //    intersection (union-find over the signature indices).
        let mut parent: Vec<usize> = (0..distinct.len()).collect();
        fn find(parent: &mut Vec<usize>, i: usize) -> usize {
            if parent[i] != i {
                let root = find(parent, parent[i]);
                parent[i] = root;
            }
            parent[i]
        }
        for a in 0..distinct.len() {
            for b in (a + 1)..distinct.len() {
                if !distinct[a].is_disjoint(&distinct[b]) {
                    let ra = find(&mut parent, a);
                    let rb = find(&mut parent, b);
                    if ra != rb {
                        parent[ra] = rb;
                    }
                }
            }
        }
        let mut component_of: Vec<usize> = vec![0; distinct.len()];
        let mut component_roots: Vec<usize> = Vec::new();
        for (i, slot) in component_of.iter_mut().enumerate() {
            let root = find(&mut parent, i);
            let comp = match component_roots.iter().position(|&r| r == root) {
                Some(c) => c,
                None => {
                    component_roots.push(root);
                    component_roots.len() - 1
                }
            };
            *slot = comp;
        }

        // 4. Build the per-group choices.
        let mut groups: Vec<Group> = Vec::with_capacity(component_roots.len());
        for comp in 0..component_roots.len() {
            let mut members: Vec<&BTreeSet<BlockId>> = distinct
                .iter()
                .enumerate()
                .filter(|(i, _)| component_of[*i] == comp)
                .map(|(_, s)| s)
                .collect();
            members.sort_by_key(|s| s.len());
            let is_chain = members.windows(2).all(|w| w[0].is_subset(w[1]));
            let candidate_sets: Vec<BTreeSet<BlockId>> = if is_chain {
                members.into_iter().cloned().collect()
            } else {
                // Enumerate all unions of non-empty subsets of the distinct
                // member sets (deduplicated). This is the exponential path.
                if members.len() as u32 > max_group_subsets {
                    return Err(PlacementError::InstanceTooLarge {
                        algorithm: "trimcaching-spec",
                        size: 1u128 << members.len().min(127),
                        budget: 1u128 << max_group_subsets.min(127),
                    });
                }
                let mut unions: Vec<BTreeSet<BlockId>> = Vec::new();
                let n = members.len();
                for mask in 1u64..(1u64 << n) {
                    let mut u: BTreeSet<BlockId> = BTreeSet::new();
                    for (j, member) in members.iter().enumerate() {
                        if mask & (1 << j) != 0 {
                            u.extend(member.iter().copied());
                        }
                    }
                    if !unions.contains(&u) {
                        unions.push(u);
                    }
                }
                unions.sort_by_key(BTreeSet::len);
                unions
            };
            let choices = candidate_sets
                .into_iter()
                .map(|blocks| -> Result<Choice, PlacementError> {
                    let bytes = blocks
                        .iter()
                        .map(|b| library.block_size_bytes(*b))
                        .sum::<Result<u64, _>>()?;
                    Ok(Choice { blocks, bytes })
                })
                .collect::<Result<_, _>>()?;
            groups.push(Group { choices });
        }

        // 5. Budget check on the full cartesian product.
        let mut total: u128 = 1;
        for g in &groups {
            total = total.saturating_mul(g.choices.len() as u128 + 1);
            if total > max_combinations {
                return Err(PlacementError::InstanceTooLarge {
                    algorithm: "trimcaching-spec",
                    size: total,
                    budget: max_combinations,
                });
            }
        }

        // 6. Per-model sharing metadata.
        let model_sharing = signatures
            .iter()
            .map(|sig| -> Result<ModelSharing, PlacementError> {
                if sig.is_empty() {
                    return Ok(ModelSharing::Unshared);
                }
                // The group containing this signature is the one whose
                // choices intersect it (groups are disjoint).
                let group = groups
                    .iter()
                    .position(|g| g.choices.iter().any(|c| !c.blocks.is_disjoint(sig)))
                    .ok_or_else(|| PlacementError::InvalidConfig {
                        reason: "internal: a shared-block signature belongs to no group".into(),
                    })?;
                let eligible_at = groups[group]
                    .choices
                    .iter()
                    .map(|c| sig.is_subset(&c.blocks))
                    .collect();
                Ok(ModelSharing::Grouped { group, eligible_at })
            })
            .collect::<Result<_, _>>()?;

        Ok(Self {
            groups,
            model_sharing,
        })
    }

    /// Number of sharing groups found.
    #[cfg(test)]
    pub(crate) fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Total number of combinations that [`SharingAnalysis::combinations`]
    /// will yield.
    #[cfg(test)]
    pub(crate) fn num_combinations(&self) -> u128 {
        self.groups.iter().fold(1u128, |acc, g| {
            acc.saturating_mul(g.choices.len() as u128 + 1)
        })
    }

    /// Whether `model` is placeable under `combination`, i.e. all of its
    /// shared blocks are contained in the combination.
    pub(crate) fn eligible(&self, model: ModelId, combination: &Combination) -> bool {
        match &self.model_sharing[model.index()] {
            ModelSharing::Unshared => true,
            ModelSharing::Grouped { group, eligible_at } => match combination.levels[*group] {
                None => false,
                Some(level) => eligible_at[level],
            },
        }
    }

    /// Iterates over every combination (the cartesian product of per-group
    /// choices, including "nothing" per group). The first combination is
    /// always the empty one.
    pub(crate) fn combinations(&self) -> CombinationIter<'_> {
        CombinationIter {
            analysis: self,
            counter: vec![0usize; self.groups.len()],
            done: false,
        }
    }
}

/// Iterator over the combinations of a [`SharingAnalysis`].
#[derive(Debug)]
pub(crate) struct CombinationIter<'a> {
    analysis: &'a SharingAnalysis,
    /// Mixed-radix counter: `counter[g]` in `0..=choices.len()`, where 0 is
    /// the "nothing" choice and `c+1` selects choice `c`.
    counter: Vec<usize>,
    done: bool,
}

impl Iterator for CombinationIter<'_> {
    type Item = Combination;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        // Materialise the current counter.
        let mut levels = Vec::with_capacity(self.counter.len());
        let mut bytes = 0u64;
        for (g, &c) in self.counter.iter().enumerate() {
            if c == 0 {
                levels.push(None);
            } else {
                let choice = &self.analysis.groups[g].choices[c - 1];
                bytes += choice.bytes;
                levels.push(Some(c - 1));
            }
        }
        // Advance the counter.
        let mut g = 0;
        loop {
            if g == self.counter.len() {
                self.done = true;
                break;
            }
            self.counter[g] += 1;
            if self.counter[g] <= self.analysis.groups[g].choices.len() {
                break;
            }
            self.counter[g] = 0;
            g += 1;
        }
        if self.counter.is_empty() {
            self.done = true;
        }
        Some(Combination { levels, bytes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trimcaching_modellib::builders::SpecialCaseBuilder;
    use trimcaching_modellib::ModelLibrary;

    fn chain_library() -> ModelLibrary {
        // Two backbones with nested prefixes, like the special case.
        let mut b = ModelLibrary::builder();
        // Backbone A prefixes of depths 2 and 3.
        b.add_model_with_blocks(
            "a1",
            "t",
            &[
                ("A/l0".into(), 10),
                ("A/l1".into(), 10),
                ("a1/own".into(), 1),
            ],
        )
        .unwrap();
        b.add_model_with_blocks(
            "a2",
            "t",
            &[
                ("A/l0".into(), 10),
                ("A/l1".into(), 10),
                ("A/l2".into(), 10),
                ("a2/own".into(), 2),
            ],
        )
        .unwrap();
        b.add_model_with_blocks(
            "a3",
            "t",
            &[
                ("A/l0".into(), 10),
                ("A/l1".into(), 10),
                ("A/l2".into(), 10),
                ("a3/own".into(), 3),
            ],
        )
        .unwrap();
        // Backbone B, single prefix depth.
        b.add_model_with_blocks("b1", "t", &[("B/l0".into(), 20), ("b1/own".into(), 4)])
            .unwrap();
        b.add_model_with_blocks("b2", "t", &[("B/l0".into(), 20), ("b2/own".into(), 5)])
            .unwrap();
        // A model with no shared blocks at all.
        b.add_model_with_blocks("solo", "t", &[("solo/own".into(), 7)])
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn chains_produce_one_group_per_backbone() {
        let lib = chain_library();
        let analysis = SharingAnalysis::analyze(&lib, 1 << 20, 20).unwrap();
        assert_eq!(analysis.num_groups(), 2);
        // Backbone A has two distinct prefixes (depth 2 and depth 3),
        // backbone B has one -> (2+1) * (1+1) = 6 combinations.
        assert_eq!(analysis.num_combinations(), 6);
        let combos: Vec<Combination> = analysis.combinations().collect();
        assert_eq!(combos.len(), 6);
        // The first combination is empty.
        assert_eq!(combos[0].bytes(), 0);
        // Byte totals are sums of the selected per-group prefixes:
        // {}, {A:2}=20, {A:3}=30, {B}=20, {A:2,B}=40, {A:3,B}=50.
        let byte_values: BTreeSet<u64> = combos.iter().map(Combination::bytes).collect();
        assert_eq!(byte_values, BTreeSet::from([0, 20, 30, 40, 50]));
    }

    #[test]
    fn eligibility_respects_prefix_depth() {
        let lib = chain_library();
        let analysis = SharingAnalysis::analyze(&lib, 1 << 20, 20).unwrap();
        let combos: Vec<Combination> = analysis.combinations().collect();
        // Model a1 (depth-2 prefix) is eligible at depth-2 and depth-3
        // choices; a2/a3 (depth-3) only at the depth-3 choice.
        let a1 = ModelId(0);
        let a2 = ModelId(1);
        let b1 = ModelId(3);
        let solo = ModelId(5);
        for combo in &combos {
            // The unshared model is always eligible.
            assert!(analysis.eligible(solo, combo));
            // a2 eligible implies a1 eligible (its prefix is contained).
            if analysis.eligible(a2, combo) {
                assert!(analysis.eligible(a1, combo));
            }
        }
        // In the empty combination only the unshared model is eligible.
        assert!(!analysis.eligible(a1, &combos[0]));
        assert!(!analysis.eligible(b1, &combos[0]));
        // There is at least one combination where everything is eligible.
        assert!(combos.iter().any(|c| analysis.eligible(a1, c)
            && analysis.eligible(a2, c)
            && analysis.eligible(b1, c)
            && analysis.eligible(solo, c)));
    }

    #[test]
    fn special_case_library_stays_within_budget() {
        let lib = SpecialCaseBuilder::paper_setup()
            .models_per_backbone(10)
            .build(3);
        let analysis = SharingAnalysis::analyze(&lib, 1 << 22, 20).unwrap();
        // Three backbones -> three chain groups.
        assert_eq!(analysis.num_groups(), 3);
        // At most 10 distinct freeze depths per backbone -> <= 11^3 combos.
        assert!(analysis.num_combinations() <= 11u128.pow(3));
        assert!(analysis.num_combinations() >= 2u128.pow(3));
    }

    #[test]
    fn budget_violation_is_reported() {
        let lib = SpecialCaseBuilder::paper_setup()
            .models_per_backbone(10)
            .build(3);
        let err = SharingAnalysis::analyze(&lib, 4, 20);
        assert!(matches!(err, Err(PlacementError::InstanceTooLarge { .. })));
    }

    #[test]
    fn non_chain_groups_enumerate_unions() {
        // Two overlapping shared sets that are not nested: {x, y1} and
        // {x, y2}. Expected choices: the two sets plus their union.
        let mut b = ModelLibrary::builder();
        b.add_model_with_blocks(
            "m1",
            "t",
            &[("x".into(), 5), ("y1".into(), 3), ("m1/own".into(), 1)],
        )
        .unwrap();
        b.add_model_with_blocks(
            "m2",
            "t",
            &[("x".into(), 5), ("y1".into(), 3), ("m2/own".into(), 1)],
        )
        .unwrap();
        b.add_model_with_blocks(
            "m3",
            "t",
            &[("x".into(), 5), ("y2".into(), 4), ("m3/own".into(), 1)],
        )
        .unwrap();
        b.add_model_with_blocks(
            "m4",
            "t",
            &[("x".into(), 5), ("y2".into(), 4), ("m4/own".into(), 1)],
        )
        .unwrap();
        let lib = b.build().unwrap();
        let analysis = SharingAnalysis::analyze(&lib, 1 << 20, 20).unwrap();
        assert_eq!(analysis.num_groups(), 1);
        // Distinct sets {x,y1}, {x,y2} -> unions: {x,y1}, {x,y2}, {x,y1,y2}.
        assert_eq!(analysis.num_combinations(), 4);
        let combos: Vec<_> = analysis.combinations().collect();
        let m1 = ModelId(0);
        let m3 = ModelId(2);
        // Both m1 and m3 are eligible only under the full union (or their
        // own set).
        let both = combos
            .iter()
            .filter(|c| analysis.eligible(m1, c) && analysis.eligible(m3, c))
            .count();
        assert_eq!(both, 1);
    }

    #[test]
    fn group_subset_budget_is_enforced() {
        // Build a pathological non-chain group with 6 distinct signatures
        // sharing a hub block, then restrict the per-group budget below 6.
        let mut b = ModelLibrary::builder();
        for i in 0..6 {
            for copy in 0..2 {
                b.add_model_with_blocks(
                    format!("m{i}_{copy}"),
                    "t",
                    &[
                        ("hub".into(), 1),
                        (format!("leaf{i}"), 2),
                        (format!("m{i}_{copy}/own"), 1),
                    ],
                )
                .unwrap();
            }
        }
        let lib = b.build().unwrap();
        let err = SharingAnalysis::analyze(&lib, u128::MAX, 5);
        assert!(matches!(err, Err(PlacementError::InstanceTooLarge { .. })));
        // With a sufficient budget the analysis succeeds.
        assert!(SharingAnalysis::analyze(&lib, u128::MAX, 20).is_ok());
    }
}

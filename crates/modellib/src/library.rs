//! The deduplicated parameter-sharing model library.
//!
//! [`ModelLibrary`] owns the block table `J`, the model table `I`, and the
//! incidence structure the paper's formulation relies on:
//!
//! * `I_j` — the models containing block `j`
//!   ([`ModelLibrary::models_of_block`]);
//! * the *shared*/*specific* classification of blocks (shared = contained
//!   in more than one model);
//! * model sizes `D_i` and block sizes `D'_j`;
//! * union ("deduplicated") sizes of arbitrary model sets, which is what
//!   the storage constraint of P1.1 charges a server for.

use std::collections::{BTreeMap, BTreeSet};

use crate::block::{BlockId, ParameterBlock};
use crate::error::ModelLibError;
use crate::model::{Model, ModelId};

/// A complete parameter-sharing model library.
///
/// Construct libraries with [`ModelLibraryBuilder`] or with the high-level
/// generators in [`crate::builders`].
#[derive(Debug, Clone, PartialEq)]
pub struct ModelLibrary {
    blocks: Vec<ParameterBlock>,
    models: Vec<Model>,
    /// `models_of_block[j]` = sorted model indices containing block `j`
    /// (the paper's `I_j`).
    models_of_block: Vec<Vec<ModelId>>,
    /// Cached per-model sizes `D_i` in bytes.
    model_sizes: Vec<u64>,
}

impl ModelLibrary {
    /// Starts an empty library builder.
    pub fn builder() -> ModelLibraryBuilder {
        ModelLibraryBuilder::new()
    }

    /// Number of parameter blocks `|J|`.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of models `|I|`.
    pub fn num_models(&self) -> usize {
        self.models.len()
    }

    /// Iterates over all models.
    pub fn models(&self) -> impl Iterator<Item = &Model> {
        self.models.iter()
    }

    /// Iterates over all blocks.
    pub fn blocks(&self) -> impl Iterator<Item = &ParameterBlock> {
        self.blocks.iter()
    }

    /// Iterates over all model identifiers in index order.
    pub fn model_ids(&self) -> impl Iterator<Item = ModelId> + '_ {
        (0..self.models.len()).map(ModelId)
    }

    /// Looks up a model.
    ///
    /// # Errors
    ///
    /// Returns [`ModelLibError::IndexOutOfRange`] if the identifier is
    /// unknown.
    pub fn model(&self, id: ModelId) -> Result<&Model, ModelLibError> {
        self.models
            .get(id.index())
            .ok_or(ModelLibError::IndexOutOfRange {
                entity: "model",
                index: id.index(),
                len: self.models.len(),
            })
    }

    /// Looks up a block.
    ///
    /// # Errors
    ///
    /// Returns [`ModelLibError::IndexOutOfRange`] if the identifier is
    /// unknown.
    pub fn block(&self, id: BlockId) -> Result<&ParameterBlock, ModelLibError> {
        self.blocks
            .get(id.index())
            .ok_or(ModelLibError::IndexOutOfRange {
                entity: "block",
                index: id.index(),
                len: self.blocks.len(),
            })
    }

    /// Size of block `j` in bytes (`D'_j`).
    ///
    /// # Errors
    ///
    /// Returns [`ModelLibError::IndexOutOfRange`] if the identifier is
    /// unknown.
    pub fn block_size_bytes(&self, id: BlockId) -> Result<u64, ModelLibError> {
        Ok(self.block(id)?.size_bytes())
    }

    /// Total size of model `i` in bytes (`D_i`), i.e. the sum of its block
    /// sizes.
    ///
    /// # Errors
    ///
    /// Returns [`ModelLibError::IndexOutOfRange`] if the identifier is
    /// unknown.
    pub fn model_size_bytes(&self, id: ModelId) -> Result<u64, ModelLibError> {
        self.model_sizes
            .get(id.index())
            .copied()
            .ok_or(ModelLibError::IndexOutOfRange {
                entity: "model",
                index: id.index(),
                len: self.models.len(),
            })
    }

    /// The models containing block `j` (the paper's `I_j`), sorted by model
    /// index.
    ///
    /// # Errors
    ///
    /// Returns [`ModelLibError::IndexOutOfRange`] if the identifier is
    /// unknown.
    pub fn models_of_block(&self, id: BlockId) -> Result<&[ModelId], ModelLibError> {
        self.models_of_block
            .get(id.index())
            .map(Vec::as_slice)
            .ok_or(ModelLibError::IndexOutOfRange {
                entity: "block",
                index: id.index(),
                len: self.blocks.len(),
            })
    }

    /// Whether block `j` is *shared*, i.e. contained in at least two models.
    pub fn is_shared_block(&self, id: BlockId) -> bool {
        self.models_of_block
            .get(id.index())
            .map(|m| m.len() >= 2)
            .unwrap_or(false)
    }

    /// All shared blocks, sorted by block index.
    pub fn shared_blocks(&self) -> Vec<BlockId> {
        (0..self.blocks.len())
            .map(BlockId)
            .filter(|b| self.is_shared_block(*b))
            .collect()
    }

    /// All specific (non-shared) blocks, sorted by block index.
    pub fn specific_blocks(&self) -> Vec<BlockId> {
        (0..self.blocks.len())
            .map(BlockId)
            .filter(|b| !self.is_shared_block(*b))
            .collect()
    }

    /// The shared blocks contained in model `i`, in architectural order.
    ///
    /// # Errors
    ///
    /// Returns [`ModelLibError::IndexOutOfRange`] if the identifier is
    /// unknown.
    pub fn shared_blocks_of_model(&self, id: ModelId) -> Result<Vec<BlockId>, ModelLibError> {
        Ok(self
            .model(id)?
            .blocks()
            .iter()
            .copied()
            .filter(|b| self.is_shared_block(*b))
            .collect())
    }

    /// The specific blocks contained in model `i`, in architectural order.
    ///
    /// # Errors
    ///
    /// Returns [`ModelLibError::IndexOutOfRange`] if the identifier is
    /// unknown.
    pub fn specific_blocks_of_model(&self, id: ModelId) -> Result<Vec<BlockId>, ModelLibError> {
        Ok(self
            .model(id)?
            .blocks()
            .iter()
            .copied()
            .filter(|b| !self.is_shared_block(*b))
            .collect())
    }

    /// Size in bytes of the *specific* part of model `i` (its blocks that no
    /// other model contains). This is the `D_N(i)` quantity fed to the
    /// knapsack DP when all of the model's shared blocks are already counted
    /// in the combination `N`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelLibError::IndexOutOfRange`] if the identifier is
    /// unknown.
    pub fn specific_size_bytes(&self, id: ModelId) -> Result<u64, ModelLibError> {
        Ok(self
            .specific_blocks_of_model(id)?
            .iter()
            .map(|b| self.blocks[b.index()].size_bytes())
            .sum())
    }

    /// Size in bytes of the *shared* part of model `i`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelLibError::IndexOutOfRange`] if the identifier is
    /// unknown.
    pub fn shared_size_bytes(&self, id: ModelId) -> Result<u64, ModelLibError> {
        Ok(self.model_size_bytes(id)? - self.specific_size_bytes(id)?)
    }

    /// Size in bytes of the union of blocks of the given models — what a
    /// server storing exactly that set of models must provision
    /// (the left-hand side of constraint (6b) for a single server).
    ///
    /// Unknown model identifiers are ignored.
    pub fn union_size_bytes<It>(&self, models: It) -> u64
    where
        It: IntoIterator<Item = ModelId>,
    {
        let mut seen: BTreeSet<BlockId> = BTreeSet::new();
        let mut total = 0u64;
        for id in models {
            if let Some(model) = self.models.get(id.index()) {
                for &b in model.blocks() {
                    if seen.insert(b) {
                        total += self.blocks[b.index()].size_bytes();
                    }
                }
            }
        }
        total
    }

    /// Size in bytes of the blocks two models have in common — the bytes
    /// a block-granular transfer of `b` skips when `a` is already
    /// resident (and vice versa). Zero for fully disjoint models;
    /// `overlap_size_bytes(i, i)` is the full size of model `i`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelLibError::IndexOutOfRange`] for unknown models.
    pub fn overlap_size_bytes(&self, a: ModelId, b: ModelId) -> Result<u64, ModelLibError> {
        let blocks_a: BTreeSet<BlockId> = self.model(a)?.blocks().iter().copied().collect();
        let mut total = 0u64;
        for &j in self.model(b)?.blocks() {
            if blocks_a.contains(&j) {
                total += self.blocks[j.index()].size_bytes();
            }
        }
        Ok(total)
    }

    /// Total size of every block in the library exactly once — the storage
    /// needed to cache *everything* with perfect sharing.
    pub fn total_unique_bytes(&self) -> u64 {
        self.blocks.iter().map(ParameterBlock::size_bytes).sum()
    }

    /// Sum of all model sizes with no sharing — the storage a
    /// sharing-oblivious cache would need to hold every model.
    pub fn total_naive_bytes(&self) -> u64 {
        self.model_sizes.iter().sum()
    }

    /// Fraction of bytes in the naive footprint that sharing removes,
    /// in `[0, 1)`. A library with no shared blocks reports `0.0`.
    pub fn sharing_savings_ratio(&self) -> f64 {
        let naive = self.total_naive_bytes();
        if naive == 0 {
            return 0.0;
        }
        1.0 - self.total_unique_bytes() as f64 / naive as f64
    }

    /// Builds a new library containing only the given models (in the given
    /// order), re-indexing models and dropping blocks no longer referenced.
    ///
    /// The evaluation uses `I = 30` models out of the 300-model library
    /// (Figs. 4–5); this is the subsetting operation that produces those
    /// instances while keeping the sharing structure intact.
    ///
    /// # Errors
    ///
    /// Returns [`ModelLibError::IndexOutOfRange`] if any identifier is
    /// unknown, or [`ModelLibError::InvalidConfig`] if `ids` is empty.
    pub fn subset(&self, ids: &[ModelId]) -> Result<ModelLibrary, ModelLibError> {
        if ids.is_empty() {
            return Err(ModelLibError::InvalidConfig {
                reason: "cannot build an empty library subset".into(),
            });
        }
        let mut builder = ModelLibraryBuilder::new();
        for &id in ids {
            let model = self.model(id)?;
            let block_specs: Vec<(String, u64)> = model
                .blocks()
                .iter()
                .map(|b| {
                    let blk = &self.blocks[b.index()];
                    (blk.label().to_string(), blk.size_bytes())
                })
                .collect();
            builder.add_model_with_blocks(model.name(), model.task(), &block_specs)?;
        }
        builder.build()
    }
}

/// Incremental builder for [`ModelLibrary`].
///
/// Blocks are deduplicated by label: two models adding a block with the same
/// label share a single [`BlockId`] (and the sizes must agree).
#[derive(Debug, Default)]
pub struct ModelLibraryBuilder {
    blocks: Vec<ParameterBlock>,
    block_by_label: BTreeMap<String, BlockId>,
    models: Vec<Model>,
}

impl ModelLibraryBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of models added so far.
    pub fn num_models(&self) -> usize {
        self.models.len()
    }

    /// Interns a block by label, returning its identifier. Re-using a label
    /// with a different size is a configuration error.
    ///
    /// # Errors
    ///
    /// Returns [`ModelLibError::InvalidConfig`] when the label already
    /// exists with a different size.
    pub fn intern_block(
        &mut self,
        label: impl Into<String>,
        size_bytes: u64,
    ) -> Result<BlockId, ModelLibError> {
        let label = label.into();
        if let Some(&id) = self.block_by_label.get(&label) {
            let existing = self.blocks[id.index()].size_bytes();
            if existing != size_bytes {
                return Err(ModelLibError::InvalidConfig {
                    reason: format!(
                        "block {label} re-declared with size {size_bytes} (was {existing})"
                    ),
                });
            }
            return Ok(id);
        }
        let id = BlockId(self.blocks.len());
        self.blocks
            .push(ParameterBlock::new(id, size_bytes, label.clone()));
        self.block_by_label.insert(label, id);
        Ok(id)
    }

    /// Adds a model whose blocks are described as `(label, size_bytes)`
    /// pairs; blocks are interned (deduplicated) by label.
    ///
    /// Returns the new model's identifier.
    ///
    /// # Errors
    ///
    /// Returns [`ModelLibError::EmptyModel`] when `blocks` is empty and
    /// [`ModelLibError::InvalidConfig`] when a label is reused with a
    /// conflicting size.
    pub fn add_model_with_blocks(
        &mut self,
        name: impl Into<String>,
        task: impl Into<String>,
        blocks: &[(String, u64)],
    ) -> Result<ModelId, ModelLibError> {
        let name = name.into();
        if blocks.is_empty() {
            return Err(ModelLibError::EmptyModel { name });
        }
        let mut ids = Vec::with_capacity(blocks.len());
        for (label, size) in blocks {
            ids.push(self.intern_block(label.clone(), *size)?);
        }
        let id = ModelId(self.models.len());
        self.models.push(Model::new(id, name, task, ids));
        Ok(id)
    }

    /// Adds a model from already-interned block identifiers.
    ///
    /// # Errors
    ///
    /// Returns [`ModelLibError::EmptyModel`] when `blocks` is empty and
    /// [`ModelLibError::UnknownBlock`] when an identifier was not interned
    /// by this builder.
    pub fn add_model_with_block_ids(
        &mut self,
        name: impl Into<String>,
        task: impl Into<String>,
        blocks: Vec<BlockId>,
    ) -> Result<ModelId, ModelLibError> {
        let name = name.into();
        if blocks.is_empty() {
            return Err(ModelLibError::EmptyModel { name });
        }
        for b in &blocks {
            if b.index() >= self.blocks.len() {
                return Err(ModelLibError::UnknownBlock { block: b.index() });
            }
        }
        let id = ModelId(self.models.len());
        self.models.push(Model::new(id, name, task, blocks));
        Ok(id)
    }

    /// Finalises the library.
    ///
    /// # Errors
    ///
    /// Returns [`ModelLibError::InvalidConfig`] if no model was added.
    pub fn build(self) -> Result<ModelLibrary, ModelLibError> {
        if self.models.is_empty() {
            return Err(ModelLibError::InvalidConfig {
                reason: "a library needs at least one model".into(),
            });
        }
        let mut models_of_block = vec![Vec::new(); self.blocks.len()];
        for model in &self.models {
            for &b in model.blocks() {
                models_of_block[b.index()].push(model.id());
            }
        }
        for list in &mut models_of_block {
            list.sort_unstable();
        }
        let model_sizes = self
            .models
            .iter()
            .map(|m| {
                m.blocks()
                    .iter()
                    .map(|b| self.blocks[b.index()].size_bytes())
                    .sum()
            })
            .collect();
        Ok(ModelLibrary {
            blocks: self.blocks,
            models: self.models,
            models_of_block,
            model_sizes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the toy library of the paper's Fig. 3: three models derived
    /// from two pre-trained backbones plus specific blocks.
    fn fig3_like_library() -> ModelLibrary {
        let mut b = ModelLibrary::builder();
        // Backbone A shared prefix: blocks a1..a5, backbone B: b1..b4.
        let shared_a: Vec<(String, u64)> = (1..=5).map(|i| (format!("bbA/layer{i}"), 10)).collect();
        let shared_b: Vec<(String, u64)> = (1..=4).map(|i| (format!("bbB/layer{i}"), 20)).collect();

        // Model 1: backbone A prefix + 2 specific blocks.
        let mut m1 = shared_a.clone();
        m1.push(("m1/head1".into(), 3));
        m1.push(("m1/head2".into(), 3));
        b.add_model_with_blocks("model1", "transportation", &m1)
            .unwrap();

        // Model 2: backbone A prefix + shared block "common15" + specifics.
        let mut m2 = shared_a.clone();
        m2.push(("common15".into(), 7));
        m2.push(("m2/head".into(), 4));
        b.add_model_with_blocks("model2", "animal", &m2).unwrap();

        // Model 3: backbone B prefix + "common15" + specifics.
        let mut m3 = shared_b.clone();
        m3.push(("common15".into(), 7));
        m3.push(("m3/head".into(), 5));
        b.add_model_with_blocks("model3", "fish", &m3).unwrap();

        b.build().unwrap()
    }

    #[test]
    fn builder_dedups_blocks_by_label() {
        let lib = fig3_like_library();
        // 5 (A) + 4 (B) + 1 (common15) + 2 + 1 + 1 specifics = 14 blocks.
        assert_eq!(lib.num_blocks(), 14);
        assert_eq!(lib.num_models(), 3);
    }

    #[test]
    fn incidence_and_sharing_classification() {
        let lib = fig3_like_library();
        let shared = lib.shared_blocks();
        // Backbone A blocks (5) shared by models 1 and 2, common15 shared by
        // models 2 and 3. Backbone B blocks only appear in model 3 -> specific.
        assert_eq!(shared.len(), 6);
        for b in &shared {
            assert!(lib.models_of_block(*b).unwrap().len() >= 2);
            assert!(lib.is_shared_block(*b));
        }
        let specific = lib.specific_blocks();
        assert_eq!(specific.len(), 14 - 6);
        for b in &specific {
            assert_eq!(lib.models_of_block(*b).unwrap().len(), 1);
        }
    }

    #[test]
    fn overlap_size_is_the_common_block_bytes() {
        let lib = fig3_like_library();
        // Models 1 and 2 share the backbone A prefix (5 × 10 bytes).
        assert_eq!(lib.overlap_size_bytes(ModelId(0), ModelId(1)).unwrap(), 50);
        assert_eq!(lib.overlap_size_bytes(ModelId(1), ModelId(0)).unwrap(), 50);
        // Models 2 and 3 share only common15 (7 bytes).
        assert_eq!(lib.overlap_size_bytes(ModelId(1), ModelId(2)).unwrap(), 7);
        // Models 1 and 3 are fully disjoint.
        assert_eq!(lib.overlap_size_bytes(ModelId(0), ModelId(2)).unwrap(), 0);
        // A model overlaps itself completely.
        assert_eq!(
            lib.overlap_size_bytes(ModelId(2), ModelId(2)).unwrap(),
            lib.model_size_bytes(ModelId(2)).unwrap()
        );
        assert!(lib.overlap_size_bytes(ModelId(0), ModelId(9)).is_err());
        assert!(lib.overlap_size_bytes(ModelId(9), ModelId(0)).is_err());
    }

    #[test]
    fn model_sizes_are_sums_of_blocks() {
        let lib = fig3_like_library();
        // Model 1: 5*10 + 3 + 3 = 56
        assert_eq!(lib.model_size_bytes(ModelId(0)).unwrap(), 56);
        // Model 2: 5*10 + 7 + 4 = 61
        assert_eq!(lib.model_size_bytes(ModelId(1)).unwrap(), 61);
        // Model 3: 4*20 + 7 + 5 = 92
        assert_eq!(lib.model_size_bytes(ModelId(2)).unwrap(), 92);
    }

    #[test]
    fn shared_and_specific_splits_add_up() {
        let lib = fig3_like_library();
        for id in lib.model_ids() {
            let total = lib.model_size_bytes(id).unwrap();
            let shared = lib.shared_size_bytes(id).unwrap();
            let specific = lib.specific_size_bytes(id).unwrap();
            assert_eq!(shared + specific, total);
        }
        // Model 1 shares exactly the backbone A prefix.
        assert_eq!(lib.shared_size_bytes(ModelId(0)).unwrap(), 50);
        assert_eq!(lib.specific_size_bytes(ModelId(0)).unwrap(), 6);
        // Model 3 shares only common15 (backbone B prefix is unique to it).
        assert_eq!(lib.shared_size_bytes(ModelId(2)).unwrap(), 7);
    }

    #[test]
    fn union_size_accounts_for_sharing() {
        let lib = fig3_like_library();
        let m0 = ModelId(0);
        let m1 = ModelId(1);
        let m2 = ModelId(2);
        // Models 1 and 2 share the 50-byte prefix.
        let both = lib.union_size_bytes([m0, m1]);
        assert_eq!(both, 56 + 61 - 50);
        // Models 2 and 3 share only common15 (7 bytes).
        assert_eq!(lib.union_size_bytes([m1, m2]), 61 + 92 - 7);
        // Union of everything equals the unique total.
        assert_eq!(lib.union_size_bytes([m0, m1, m2]), lib.total_unique_bytes());
        // Duplicated ids and unknown ids do not inflate the total.
        assert_eq!(lib.union_size_bytes([m0, m0]), 56);
        assert_eq!(lib.union_size_bytes([m0, ModelId(99)]), 56);
        assert_eq!(lib.union_size_bytes(std::iter::empty()), 0);
    }

    #[test]
    fn naive_and_unique_totals_differ_when_sharing_exists() {
        let lib = fig3_like_library();
        assert_eq!(lib.total_naive_bytes(), 56 + 61 + 92);
        assert!(lib.total_unique_bytes() < lib.total_naive_bytes());
        let ratio = lib.sharing_savings_ratio();
        assert!(ratio > 0.0 && ratio < 1.0);
    }

    #[test]
    fn subset_reindexes_and_preserves_sharing() {
        let lib = fig3_like_library();
        let sub = lib.subset(&[ModelId(1), ModelId(2)]).unwrap();
        assert_eq!(sub.num_models(), 2);
        // In the subset, model indices are 0 and 1 again.
        assert_eq!(sub.model(ModelId(0)).unwrap().name(), "model2");
        assert_eq!(sub.model(ModelId(1)).unwrap().name(), "model3");
        // common15 is still shared between the two surviving models.
        let shared = sub.shared_blocks();
        assert_eq!(shared.len(), 1);
        // The backbone A prefix is still present in model2 but now specific.
        assert_eq!(sub.model_size_bytes(ModelId(0)).unwrap(), 61);
        // Union of the two models matches the original pairwise union.
        assert_eq!(
            sub.union_size_bytes(sub.model_ids()),
            lib.union_size_bytes([ModelId(1), ModelId(2)])
        );
    }

    #[test]
    fn subset_rejects_bad_input() {
        let lib = fig3_like_library();
        assert!(lib.subset(&[]).is_err());
        assert!(lib.subset(&[ModelId(17)]).is_err());
    }

    #[test]
    fn builder_rejects_conflicting_and_degenerate_input() {
        let mut b = ModelLibrary::builder();
        b.intern_block("x", 10).unwrap();
        assert!(b.intern_block("x", 20).is_err());
        assert!(b.add_model_with_blocks("m", "t", &[]).is_err());
        assert!(b
            .add_model_with_block_ids("m", "t", vec![BlockId(42)])
            .is_err());
        assert!(b.add_model_with_block_ids("m", "t", vec![]).is_err());
        // No models -> build fails.
        assert!(ModelLibrary::builder().build().is_err());
    }

    #[test]
    fn add_model_with_block_ids_accepts_interned_blocks() {
        let mut b = ModelLibrary::builder();
        let x = b.intern_block("x", 10).unwrap();
        let y = b.intern_block("y", 20).unwrap();
        let id = b.add_model_with_block_ids("m", "t", vec![x, y]).unwrap();
        assert_eq!(b.num_models(), 1);
        let lib = b.build().unwrap();
        assert_eq!(lib.model_size_bytes(id).unwrap(), 30);
    }

    #[test]
    fn lookups_validate_indices() {
        let lib = fig3_like_library();
        assert!(lib.model(ModelId(3)).is_err());
        assert!(lib.block(BlockId(99)).is_err());
        assert!(lib.block_size_bytes(BlockId(99)).is_err());
        assert!(lib.model_size_bytes(ModelId(99)).is_err());
        assert!(lib.models_of_block(BlockId(99)).is_err());
        assert!(lib.shared_blocks_of_model(ModelId(99)).is_err());
        assert!(lib.specific_blocks_of_model(ModelId(99)).is_err());
        assert!(!lib.is_shared_block(BlockId(99)));
    }
}

//! Models — ordered collections of parameter blocks.

use crate::block::BlockId;

/// Identifier of a model within a [`ModelLibrary`](crate::library::ModelLibrary).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ModelId(pub usize);

impl ModelId {
    /// The underlying dense index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl From<usize> for ModelId {
    fn from(v: usize) -> Self {
        ModelId(v)
    }
}

impl std::fmt::Display for ModelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "model#{}", self.0)
    }
}

/// A model in the library: a name plus the set of parameter blocks it is
/// composed of (`J_i` in the paper's notation).
///
/// The model's total size `D_i` is the sum of its blocks' sizes and is
/// computed by [`ModelLibrary::model_size_bytes`](crate::library::ModelLibrary::model_size_bytes)
/// so that it always stays consistent with the library's block table.
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    id: ModelId,
    name: String,
    blocks: Vec<BlockId>,
    /// Which downstream task/class this model serves; used only for
    /// reporting.
    task: String,
}

impl Model {
    /// Creates a model from its block list.
    ///
    /// Duplicate blocks are removed (a model cannot contain the same block
    /// twice) while preserving first-occurrence order.
    pub fn new(
        id: ModelId,
        name: impl Into<String>,
        task: impl Into<String>,
        blocks: Vec<BlockId>,
    ) -> Self {
        let mut seen = std::collections::BTreeSet::new();
        let blocks = blocks
            .into_iter()
            .filter(|b| seen.insert(*b))
            .collect::<Vec<_>>();
        Self {
            id,
            name: name.into(),
            task: task.into(),
            blocks,
        }
    }

    /// The model identifier.
    pub fn id(&self) -> ModelId {
        self.id
    }

    /// Human-readable model name (e.g. `"resnet50-ft-shark"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The downstream task this model serves (e.g. a CIFAR-100 class).
    pub fn task(&self) -> &str {
        &self.task
    }

    /// The blocks composing this model, in architectural order.
    pub fn blocks(&self) -> &[BlockId] {
        &self.blocks
    }

    /// Number of blocks in the model.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the model contains the given block.
    pub fn contains_block(&self, block: BlockId) -> bool {
        self.blocks.contains(&block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_id_roundtrips() {
        let id = ModelId::from(12);
        assert_eq!(id.index(), 12);
        assert_eq!(id.to_string(), "model#12");
    }

    #[test]
    fn model_deduplicates_blocks_preserving_order() {
        let m = Model::new(
            ModelId(0),
            "m",
            "task",
            vec![BlockId(3), BlockId(1), BlockId(3), BlockId(2), BlockId(1)],
        );
        assert_eq!(m.blocks(), &[BlockId(3), BlockId(1), BlockId(2)]);
        assert_eq!(m.num_blocks(), 3);
    }

    #[test]
    fn model_accessors() {
        let m = Model::new(ModelId(5), "resnet50-ft-shark", "shark", vec![BlockId(0)]);
        assert_eq!(m.id(), ModelId(5));
        assert_eq!(m.name(), "resnet50-ft-shark");
        assert_eq!(m.task(), "shark");
        assert!(m.contains_block(BlockId(0)));
        assert!(!m.contains_block(BlockId(1)));
    }
}

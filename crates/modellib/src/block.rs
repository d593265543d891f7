//! Parameter blocks — the unit of storage sharing.
//!
//! A *parameter block* (Section III-B of the paper) is a set of parameters
//! treated atomically by the caching system: a CNN layer, a transformer
//! block, a LoRA adapter, or an entire frozen backbone. A block is *shared*
//! when more than one model in the library contains it and *specific*
//! otherwise; the classification is computed by
//! [`ModelLibrary`](crate::library::ModelLibrary).

/// Identifier of a parameter block within a [`ModelLibrary`](crate::library::ModelLibrary).
///
/// Block identifiers are dense indices assigned by the library builder;
/// they are meaningless across different libraries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockId(pub usize);

impl BlockId {
    /// The underlying dense index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl From<usize> for BlockId {
    fn from(v: usize) -> Self {
        BlockId(v)
    }
}

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "block#{}", self.0)
    }
}

/// A parameter block: a named, sized unit of model parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ParameterBlock {
    id: BlockId,
    size_bytes: u64,
    label: String,
}

impl ParameterBlock {
    /// Creates a parameter block.
    ///
    /// `label` is a human-readable provenance tag such as
    /// `"resnet50/pretrained/layer17"` or `"model42/finetuned/layer103"`;
    /// builders use it to deduplicate shared blocks.
    pub fn new(id: BlockId, size_bytes: u64, label: impl Into<String>) -> Self {
        Self {
            id,
            size_bytes,
            label: label.into(),
        }
    }

    /// The block identifier.
    pub fn id(&self) -> BlockId {
        self.id
    }

    /// Size of the block in bytes (`D'_j` in the paper).
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Human-readable provenance label.
    pub fn label(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_id_roundtrips_and_displays() {
        let id = BlockId::from(7);
        assert_eq!(id.index(), 7);
        assert_eq!(id.to_string(), "block#7");
        assert_eq!(BlockId(7), id);
        assert!(BlockId(3) < BlockId(4));
    }

    #[test]
    fn parameter_block_exposes_fields() {
        let b = ParameterBlock::new(BlockId(3), 1024, "resnet18/pretrained/layer03");
        assert_eq!(b.id(), BlockId(3));
        assert_eq!(b.size_bytes(), 1024);
        assert_eq!(b.label(), "resnet18/pretrained/layer03");
    }

    #[test]
    fn blocks_with_same_contents_compare_equal() {
        let a = ParameterBlock::new(BlockId(0), 10, "x");
        let b = ParameterBlock::new(BlockId(0), 10, "x");
        assert_eq!(a, b);
    }
}

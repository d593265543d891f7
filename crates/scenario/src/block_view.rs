//! The block-level decision view `Y = {y_{m,j}}` of problem P1.2
//! (Section IV-B).
//!
//! The paper's hardness argument rewrites the model-level placement `X`
//! into block-level variables: `y_{m,j} = 1` when edge server `m` stores
//! parameter block `j`. The two views are coupled by
//!
//! ```text
//! y_{m,j} = 1 − Π_{i ∈ I_j} (1 − x_{m,i})        (a block is stored when
//!                                                 some cached model needs it)
//! x_{m,i} = Π_{j ∈ J_i} y_{m,j}                   (a model is available when
//!                                                 all its blocks are stored)
//! ```
//!
//! [`BlockPlacement`] materialises the `Y` view, converts in both
//! directions, and exposes the knapsack-style storage accounting of
//! constraint (8b) — which is exactly the deduplicated byte count of
//! Eq. (7) for the placement that induced it. The round-trip property
//! (`X ⊆ induced(from(X))`, with equality of storage) is what the
//! `block_view_consistency` property tests check.

use std::collections::BTreeSet;

use trimcaching_modellib::{BlockId, ModelId, ModelLibrary};

use crate::entities::ServerId;
use crate::error::ScenarioError;
use crate::placement::Placement;

/// A block-level caching decision over `M` servers and `|J|` blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockPlacement {
    num_servers: usize,
    num_blocks: usize,
    /// `stored[m]` = sorted set of blocks cached on server `m`.
    stored: Vec<BTreeSet<BlockId>>,
}

impl BlockPlacement {
    /// Creates an empty block placement.
    pub fn empty(num_servers: usize, num_blocks: usize) -> Self {
        Self {
            num_servers,
            num_blocks,
            stored: vec![BTreeSet::new(); num_servers],
        }
    }

    /// Derives the block view of a model placement: server `m` stores block
    /// `j` exactly when it caches some model containing `j`
    /// (`y_{m,j} = 1 − Π_{i ∈ I_j}(1 − x_{m,i})`).
    ///
    /// # Errors
    ///
    /// Propagates index errors when the placement refers to models unknown
    /// to `library`.
    pub fn from_placement(
        placement: &Placement,
        library: &ModelLibrary,
    ) -> Result<Self, ScenarioError> {
        let mut view = Self::empty(placement.num_servers(), library.num_blocks());
        for m in 0..placement.num_servers() {
            view.stored[m] = placement.blocks_on(ServerId(m), library)?;
        }
        Ok(view)
    }

    /// Number of servers `M`.
    pub fn num_servers(&self) -> usize {
        self.num_servers
    }

    /// Number of blocks `|J|`.
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// Whether server `m` stores block `j` (`y_{m,j}`).
    pub fn contains(&self, server: ServerId, block: BlockId) -> bool {
        self.stored
            .get(server.index())
            .map(|s| s.contains(&block))
            .unwrap_or(false)
    }

    /// Marks block `j` as stored on server `m`. Returns `true` when the
    /// decision changed.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::IndexOutOfRange`] for unknown indices.
    pub fn store(&mut self, server: ServerId, block: BlockId) -> Result<bool, ScenarioError> {
        if server.index() >= self.num_servers {
            return Err(ScenarioError::IndexOutOfRange {
                entity: "server",
                index: server.index(),
                len: self.num_servers,
            });
        }
        if block.index() >= self.num_blocks {
            return Err(ScenarioError::IndexOutOfRange {
                entity: "block",
                index: block.index(),
                len: self.num_blocks,
            });
        }
        Ok(self.stored[server.index()].insert(block))
    }

    /// The blocks stored on server `m`, in ascending block order.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::IndexOutOfRange`] for an unknown server.
    pub fn blocks_on(&self, server: ServerId) -> Result<Vec<BlockId>, ScenarioError> {
        self.stored
            .get(server.index())
            .map(|s| s.iter().copied().collect())
            .ok_or(ScenarioError::IndexOutOfRange {
                entity: "server",
                index: server.index(),
                len: self.num_servers,
            })
    }

    /// Bytes server `m` must provision for its stored blocks — the
    /// left-hand side of the knapsack constraint (8b),
    /// `Σ_j D'_j · y_{m,j}`.
    ///
    /// # Errors
    ///
    /// Propagates library errors for unknown block identifiers.
    pub fn stored_bytes(
        &self,
        server: ServerId,
        library: &ModelLibrary,
    ) -> Result<u64, ScenarioError> {
        let mut total = 0u64;
        for &b in self
            .stored
            .get(server.index())
            .ok_or(ScenarioError::IndexOutOfRange {
                entity: "server",
                index: server.index(),
                len: self.num_servers,
            })?
        {
            total += library.block_size_bytes(b)?;
        }
        Ok(total)
    }

    /// The model-level placement induced by this block view: model `i` is
    /// available on server `m` exactly when every one of its blocks is
    /// stored (`x_{m,i} = Π_{j ∈ J_i} y_{m,j}`).
    ///
    /// # Errors
    ///
    /// Propagates index errors for inconsistent dimensions.
    pub fn induced_placement(&self, library: &ModelLibrary) -> Result<Placement, ScenarioError> {
        let mut placement = Placement::empty(self.num_servers, library.num_models());
        for m in 0..self.num_servers {
            for i in 0..library.num_models() {
                let model = ModelId(i);
                let complete = library
                    .model(model)?
                    .blocks()
                    .iter()
                    .all(|b| self.stored[m].contains(b));
                if complete {
                    placement.place(ServerId(m), model)?;
                }
            }
        }
        Ok(placement)
    }

    /// Total number of stored `(server, block)` pairs.
    pub fn len(&self) -> usize {
        self.stored.iter().map(BTreeSet::len).sum()
    }

    /// Whether nothing is stored anywhere.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn library() -> ModelLibrary {
        let mut b = ModelLibrary::builder();
        b.add_model_with_blocks("m0", "t", &[("shared".into(), 100), ("m0/own".into(), 10)])
            .unwrap();
        b.add_model_with_blocks("m1", "t", &[("shared".into(), 100), ("m1/own".into(), 20)])
            .unwrap();
        b.add_model_with_blocks("m2", "t", &[("m2/own".into(), 50)])
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn view_from_placement_unions_blocks_and_matches_eq7_storage() {
        let lib = library();
        let mut x = Placement::empty(2, 3);
        x.place(ServerId(0), ModelId(0)).unwrap();
        x.place(ServerId(0), ModelId(1)).unwrap();
        x.place(ServerId(1), ModelId(2)).unwrap();
        let y = BlockPlacement::from_placement(&x, &lib).unwrap();
        assert_eq!(y.num_servers(), 2);
        assert_eq!(y.num_blocks(), lib.num_blocks());
        // Server 0: shared + m0/own + m1/own = 3 blocks, 130 bytes (Eq. 7).
        assert_eq!(y.blocks_on(ServerId(0)).unwrap().len(), 3);
        assert_eq!(y.stored_bytes(ServerId(0), &lib).unwrap(), 130);
        assert_eq!(
            y.stored_bytes(ServerId(0), &lib).unwrap(),
            lib.union_size_bytes([ModelId(0), ModelId(1)])
        );
        assert_eq!(y.stored_bytes(ServerId(1), &lib).unwrap(), 50);
        assert_eq!(y.len(), 4);
        assert!(!y.is_empty());
    }

    #[test]
    fn induced_placement_recovers_the_original_models() {
        let lib = library();
        let mut x = Placement::empty(2, 3);
        x.place(ServerId(0), ModelId(0)).unwrap();
        x.place(ServerId(1), ModelId(1)).unwrap();
        x.place(ServerId(1), ModelId(2)).unwrap();
        let y = BlockPlacement::from_placement(&x, &lib).unwrap();
        let induced = y.induced_placement(&lib).unwrap();
        // Every originally placed model is induced...
        for (server, model) in x.iter() {
            assert!(induced.contains(server, model));
        }
        // ...and in this library no extra model appears for free (m1 needs
        // its own 20-byte block which server 0 does not store).
        assert!(!induced.contains(ServerId(0), ModelId(1)));
    }

    #[test]
    fn induced_placement_can_exceed_the_original_when_blocks_overlap() {
        // A model that is a strict subset of another: caching the superset
        // makes the subset available for free — the x↔y mapping is not a
        // bijection, which is exactly why P1.2 is only *equivalent* in
        // optimum, not per solution.
        let mut b = ModelLibrary::builder();
        b.add_model_with_blocks("small", "t", &[("base".into(), 10)])
            .unwrap();
        b.add_model_with_blocks("big", "t", &[("base".into(), 10), ("extra".into(), 5)])
            .unwrap();
        let lib = b.build().unwrap();
        let mut x = Placement::empty(1, 2);
        x.place(ServerId(0), ModelId(1)).unwrap();
        let induced = BlockPlacement::from_placement(&x, &lib)
            .unwrap()
            .induced_placement(&lib)
            .unwrap();
        assert!(induced.contains(ServerId(0), ModelId(0)));
        assert!(induced.contains(ServerId(0), ModelId(1)));
        assert!(induced.len() > x.len());
    }

    #[test]
    fn manual_store_and_queries_validate_indices() {
        let lib = library();
        let mut y = BlockPlacement::empty(1, lib.num_blocks());
        assert!(y.is_empty());
        assert!(y.store(ServerId(0), BlockId(0)).unwrap());
        assert!(!y.store(ServerId(0), BlockId(0)).unwrap());
        assert!(y.contains(ServerId(0), BlockId(0)));
        assert!(!y.contains(ServerId(3), BlockId(0)));
        assert!(y.store(ServerId(1), BlockId(0)).is_err());
        assert!(y.store(ServerId(0), BlockId(99)).is_err());
        assert!(y.blocks_on(ServerId(9)).is_err());
        assert!(y.stored_bytes(ServerId(9), &lib).is_err());
        // Storing only the shared block induces no complete model.
        let induced = y.induced_placement(&lib).unwrap();
        assert!(induced.is_empty());
    }

    #[test]
    fn empty_view_round_trips() {
        let lib = library();
        let x = Placement::empty(3, 3);
        let y = BlockPlacement::from_placement(&x, &lib).unwrap();
        assert!(y.is_empty());
        assert!(y.induced_placement(&lib).unwrap().is_empty());
    }
}

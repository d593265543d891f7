//! The placement decision `X = {x_{m,i}}` and its block-level view
//! `Y = {y_{m,j}}`.
//!
//! `x_{m,i} = 1` means model `i` is cached on edge server `m`. The
//! block-level view `y_{m,j}` of Section IV-B (P1.2) marks which parameter
//! blocks server `m` actually stores: `y_{m,j} = 1 − Π_{i ∈ I_j}(1 − x_{m,i})`,
//! i.e. a block is stored when at least one placed model contains it.

use std::collections::BTreeSet;

use trimcaching_modellib::{BlockId, ModelId, ModelLibrary};

use crate::entities::ServerId;
use crate::error::ScenarioError;

/// A model placement decision over `M` servers and `I` models.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    num_servers: usize,
    num_models: usize,
    /// `placed[m]` = sorted set of models cached on server `m`.
    placed: Vec<BTreeSet<ModelId>>,
}

impl Placement {
    /// Creates an empty placement (no model cached anywhere).
    pub fn empty(num_servers: usize, num_models: usize) -> Self {
        Self {
            num_servers,
            num_models,
            placed: vec![BTreeSet::new(); num_servers],
        }
    }

    /// Number of servers `M`.
    pub fn num_servers(&self) -> usize {
        self.num_servers
    }

    /// Number of models `I`.
    pub fn num_models(&self) -> usize {
        self.num_models
    }

    /// Whether model `i` is cached on server `m` (`x_{m,i}`).
    pub fn contains(&self, server: ServerId, model: ModelId) -> bool {
        self.placed
            .get(server.index())
            .map(|s| s.contains(&model))
            .unwrap_or(false)
    }

    /// Places model `i` on server `m`. Returns `true` when the placement
    /// changed (the model was not already there).
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::IndexOutOfRange`] for unknown indices.
    pub fn place(&mut self, server: ServerId, model: ModelId) -> Result<bool, ScenarioError> {
        self.check(server, model)?;
        Ok(self.placed[server.index()].insert(model))
    }

    /// Removes model `i` from server `m`. Returns `true` when the placement
    /// changed.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::IndexOutOfRange`] for unknown indices.
    pub fn remove(&mut self, server: ServerId, model: ModelId) -> Result<bool, ScenarioError> {
        self.check(server, model)?;
        Ok(self.placed[server.index()].remove(&model))
    }

    /// The models cached on server `m`, in ascending model order.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::IndexOutOfRange`] for an unknown server.
    pub fn models_on(&self, server: ServerId) -> Result<Vec<ModelId>, ScenarioError> {
        self.placed
            .get(server.index())
            .map(|s| s.iter().copied().collect())
            .ok_or(ScenarioError::IndexOutOfRange {
                entity: "server",
                index: server.index(),
                len: self.num_servers,
            })
    }

    /// The servers caching model `i`, in ascending server order.
    pub fn servers_of(&self, model: ModelId) -> Vec<ServerId> {
        self.placed
            .iter()
            .enumerate()
            .filter(|(_, s)| s.contains(&model))
            .map(|(m, _)| ServerId(m))
            .collect()
    }

    /// Total number of `(server, model)` placements (`|X|`).
    pub fn len(&self) -> usize {
        self.placed.iter().map(BTreeSet::len).sum()
    }

    /// Whether no model is cached anywhere.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over all `(server, model)` pairs in the placement.
    pub fn iter(&self) -> impl Iterator<Item = (ServerId, ModelId)> + '_ {
        self.placed
            .iter()
            .enumerate()
            .flat_map(|(m, set)| set.iter().map(move |i| (ServerId(m), *i)))
    }

    /// The block-level view of server `m`: the set of blocks it stores
    /// (`{j : y_{m,j} = 1}` in P1.2), given the library's model→block map.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::IndexOutOfRange`] for an unknown server and
    /// propagates library errors for unknown models.
    pub fn blocks_on(
        &self,
        server: ServerId,
        library: &ModelLibrary,
    ) -> Result<BTreeSet<BlockId>, ScenarioError> {
        let models = self.models_on(server)?;
        let mut blocks = BTreeSet::new();
        for model in models {
            for &b in library.model(model)?.blocks() {
                blocks.insert(b);
            }
        }
        Ok(blocks)
    }

    fn check(&self, server: ServerId, model: ModelId) -> Result<(), ScenarioError> {
        if server.index() >= self.num_servers {
            return Err(ScenarioError::IndexOutOfRange {
                entity: "server",
                index: server.index(),
                len: self.num_servers,
            });
        }
        if model.index() >= self.num_models {
            return Err(ScenarioError::IndexOutOfRange {
                entity: "model",
                index: model.index(),
                len: self.num_models,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trimcaching_modellib::ModelLibrary;

    fn tiny_library() -> ModelLibrary {
        let mut b = ModelLibrary::builder();
        b.add_model_with_blocks("m0", "t0", &[("shared".into(), 10), ("m0/own".into(), 5)])
            .unwrap();
        b.add_model_with_blocks("m1", "t1", &[("shared".into(), 10), ("m1/own".into(), 7)])
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn place_and_remove_round_trip() {
        let mut p = Placement::empty(2, 3);
        assert!(p.is_empty());
        assert!(p.place(ServerId(0), ModelId(1)).unwrap());
        assert!(!p.place(ServerId(0), ModelId(1)).unwrap());
        assert!(p.contains(ServerId(0), ModelId(1)));
        assert!(!p.contains(ServerId(1), ModelId(1)));
        assert_eq!(p.len(), 1);
        assert!(p.remove(ServerId(0), ModelId(1)).unwrap());
        assert!(!p.remove(ServerId(0), ModelId(1)).unwrap());
        assert!(p.is_empty());
    }

    #[test]
    fn out_of_range_operations_error() {
        let mut p = Placement::empty(2, 3);
        assert!(p.place(ServerId(2), ModelId(0)).is_err());
        assert!(p.place(ServerId(0), ModelId(3)).is_err());
        assert!(p.remove(ServerId(5), ModelId(0)).is_err());
        assert!(p.models_on(ServerId(9)).is_err());
        assert!(!p.contains(ServerId(9), ModelId(0)));
    }

    #[test]
    fn queries_list_models_and_servers() {
        let mut p = Placement::empty(3, 4);
        p.place(ServerId(0), ModelId(2)).unwrap();
        p.place(ServerId(0), ModelId(1)).unwrap();
        p.place(ServerId(2), ModelId(2)).unwrap();
        assert_eq!(
            p.models_on(ServerId(0)).unwrap(),
            vec![ModelId(1), ModelId(2)]
        );
        assert_eq!(p.servers_of(ModelId(2)), vec![ServerId(0), ServerId(2)]);
        assert!(p.servers_of(ModelId(0)).is_empty());
        assert_eq!(p.len(), 3);
        let pairs: Vec<_> = p.iter().collect();
        assert_eq!(pairs.len(), 3);
        assert!(pairs.contains(&(ServerId(2), ModelId(2))));
    }

    #[test]
    fn block_view_unions_model_blocks() {
        let lib = tiny_library();
        let mut p = Placement::empty(1, 2);
        p.place(ServerId(0), ModelId(0)).unwrap();
        p.place(ServerId(0), ModelId(1)).unwrap();
        let blocks = p.blocks_on(ServerId(0), &lib).unwrap();
        // shared + m0/own + m1/own = 3 distinct blocks even though the
        // shared block appears in both models.
        assert_eq!(blocks.len(), 3);
        let empty = Placement::empty(1, 2);
        assert!(empty.blocks_on(ServerId(0), &lib).unwrap().is_empty());
        assert!(empty.blocks_on(ServerId(4), &lib).is_err());
    }

    #[test]
    fn equality_is_structural() {
        let mut a = Placement::empty(2, 2);
        let mut b = Placement::empty(2, 2);
        a.place(ServerId(1), ModelId(0)).unwrap();
        b.place(ServerId(1), ModelId(0)).unwrap();
        assert_eq!(a, b);
        b.place(ServerId(0), ModelId(1)).unwrap();
        assert_ne!(a, b);
    }
}

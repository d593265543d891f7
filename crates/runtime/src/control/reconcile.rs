//! Staged cache reconciliation: diffing a target placement against the
//! live cache state of one server.
//!
//! A re-plan must never be an instantaneous swap — moving a target into
//! place costs real backhaul bytes and real time, and the whole point of
//! the runtime is that those costs are *modelled*. The reconciler
//! therefore only computes a deterministic [`ServerDelta`]: for one
//! server, which target models are missing (and must be filled through
//! the ordinary block-granular [`BackhaulLink`] pipeline, fine-grained
//! updates in the spirit of arXiv:2509.19341) and which resident models
//! the target no longer wants (the *eviction pool* fills may reclaim
//! from). The engine stages each server's delta on its own, touching
//! only that server's cache and link: fills reserve capacity, pin
//! shared blocks, ride `TransferComplete` events and congest the link
//! exactly like demand-miss fills; pool models are evicted **lazily**,
//! coldest-first, only when a staged fill actually needs the room —
//! until then they keep serving requests, which is what makes the
//! reconciliation *staged* rather than disruptive.
//!
//! [`BackhaulLink`]: crate::transfer::BackhaulLink

use trimcaching_modellib::ModelId;
use trimcaching_scenario::{Placement, ServerId};

use crate::cache::{CacheView, ServerCache};
use crate::error::RuntimeError;

/// What reconciling one server towards the target requires.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServerDelta {
    /// Target models neither servable nor already in flight here,
    /// ascending — each becomes a staged fill if room can be made.
    pub fills: Vec<ModelId>,
    /// Resident servable models the target does not want, ascending —
    /// the pool staged fills may evict from (lazily, coldest-first).
    pub eviction_pool: Vec<ModelId>,
}

/// Diffs `target`'s row for `server` against that server's live
/// `cache`.
///
/// # Errors
///
/// Returns an error if `target` has no row for `server`.
pub fn diff(
    target: &Placement,
    server: ServerId,
    cache: &ServerCache<'_>,
) -> Result<ServerDelta, RuntimeError> {
    let mut delta = ServerDelta::default();
    for model in target.models_on(server)? {
        if !cache.contains(model) && !cache.is_pending(model) {
            delta.fills.push(model);
        }
    }
    for model in cache.cached_models() {
        if !target.contains(server, model) {
            delta.eviction_pool.push(model);
        }
    }
    Ok(delta)
}

/// The next model a staged fill should evict to make room: the coldest
/// pool entry — fewest observed requests, then stalest access, then
/// lowest id — that is still resident and not pending. Returns `None`
/// when the pool is exhausted (the fill is then skipped; the target is
/// approached, never forced).
pub fn next_victim(view: &CacheView<'_, '_>, pool: &[ModelId]) -> Option<ModelId> {
    pool.iter()
        .copied()
        .filter(|m| view.tracker.contains(*m) && !view.pending[m.index()])
        .min_by(|a, b| {
            view.access_count[a.index()]
                .cmp(&view.access_count[b.index()])
                .then(view.last_access_s[a.index()].total_cmp(&view.last_access_s[b.index()]))
                .then(a.cmp(b))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use trimcaching_modellib::ModelLibrary;
    use trimcaching_scenario::Placement;

    /// m0/m1 share a 100-byte block; m2 and m3 are standalone.
    fn library() -> ModelLibrary {
        let mut b = ModelLibrary::builder();
        b.add_model_with_blocks("m0", "t", &[("shared".into(), 100), ("m0/own".into(), 10)])
            .unwrap();
        b.add_model_with_blocks("m1", "t", &[("shared".into(), 100), ("m1/own".into(), 20)])
            .unwrap();
        b.add_model_with_blocks("m2", "t", &[("m2/own".into(), 50)])
            .unwrap();
        b.add_model_with_blocks("m3", "t", &[("m3/own".into(), 40)])
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn diff_splits_fills_from_the_eviction_pool() {
        let lib = library();
        let mut cache = ServerCache::new(&lib, 1_000);
        cache.insert(ModelId(0)).unwrap();
        cache.insert(ModelId(2)).unwrap();
        // In flight: must be neither a fill nor pool.
        cache.start_fill(ModelId(1), 5.0, true).unwrap();
        let mut target = Placement::empty(2, 4);
        target.place(ServerId(1), ModelId(1)).unwrap();
        target.place(ServerId(1), ModelId(3)).unwrap();
        let delta = diff(&target, ServerId(1), &cache).unwrap();
        assert_eq!(delta.fills, vec![ModelId(3)]);
        assert_eq!(delta.eviction_pool, vec![ModelId(0), ModelId(2)]);
        // A target matching the live state produces an empty delta.
        let mut settled = Placement::empty(2, 4);
        for m in [0, 2] {
            settled.place(ServerId(1), ModelId(m)).unwrap();
        }
        cache.complete_fill(ModelId(1)).unwrap();
        settled.place(ServerId(1), ModelId(1)).unwrap();
        assert_eq!(
            diff(&settled, ServerId(1), &cache).unwrap(),
            ServerDelta::default()
        );
    }

    #[test]
    fn victims_come_coldest_first_and_skip_pending() {
        let lib = library();
        let mut cache = ServerCache::new(&lib, 1_000);
        cache.insert(ModelId(0)).unwrap();
        cache.insert(ModelId(2)).unwrap();
        cache.insert(ModelId(3)).unwrap();
        cache.record_access(ModelId(0), 1.0);
        cache.record_access(ModelId(0), 2.0);
        cache.record_access(ModelId(2), 3.0);
        cache.record_access(ModelId(3), 0.5);
        let pool = vec![ModelId(0), ModelId(2), ModelId(3)];
        // m3 is the stalest of the single-access models.
        assert_eq!(next_victim(&cache.view(), &pool), Some(ModelId(3)));
        cache.evict(ModelId(3)).unwrap();
        assert_eq!(next_victim(&cache.view(), &pool), Some(ModelId(2)));
        cache.evict(ModelId(2)).unwrap();
        assert_eq!(next_victim(&cache.view(), &pool), Some(ModelId(0)));
        cache.evict(ModelId(0)).unwrap();
        assert_eq!(next_victim(&cache.view(), &pool), None);
        // Pool entries with an in-flight fill are never victims.
        cache.start_fill(ModelId(2), 9.0, true).unwrap();
        assert_eq!(next_victim(&cache.view(), &[ModelId(2)]), None);
    }
}

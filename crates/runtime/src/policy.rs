//! Pluggable online eviction policies.
//!
//! On a cache miss the engine fetches the model from the cloud and asks
//! the server's policy to make room. Two classical baselines (LRU, LFU)
//! treat models as opaque objects; the [`CostAwareLfu`] policy is
//! *shared-block-aware*: it knows — via [`CacheView::release_bytes`] —
//! that evicting a model only frees the bytes of blocks no other cached
//! model references, so it ranks victims by observed demand per
//! *actually reclaimable* byte and never evicts a model whose eviction
//! frees nothing; it admits by the incoming model's
//! [`CacheView::marginal_bytes`]. This is the online counterpart of the
//! marginal-cost accounting the TrimCaching greedy algorithms are built
//! on (Eq. 7). Both byte counts are lookups in the cache's residency
//! tables, so a decision costs one pass over the model ids and
//! allocates nothing.

use trimcaching_modellib::ModelId;

use crate::cache::CacheView;

/// An online cache-eviction (and admission) policy.
///
/// Policies are stateless rankers over the per-server statistics in
/// [`CacheView`]; all mutable state lives in the caches themselves, which
/// keeps policies trivially shareable across the engine's worker threads.
pub trait EvictionPolicy: Send + Sync {
    /// Short name used in reports (e.g. `"lru"`).
    fn name(&self) -> &'static str;

    /// Picks the next model to evict to make room for `incoming`, or
    /// `None` to refuse (the engine then serves the request without
    /// admitting the model).
    fn victim(&self, cache: CacheView<'_, '_>, incoming: ModelId) -> Option<ModelId>;

    /// Whether `incoming` should be admitted at all. Policies that can
    /// tell an insertion would be a net loss veto it here before any
    /// eviction happens. Default: always admit.
    fn admits(&self, _cache: CacheView<'_, '_>, _incoming: ModelId) -> bool {
        true
    }
}

/// Candidate victims: cached models other than the incoming one,
/// ascending. Models with an in-flight fill are excluded — their
/// capacity is reserved and their blocks are (partially) on the wire;
/// evicting them would tear down a transfer the engine has already
/// scheduled.
fn candidates<'a>(
    cache: &'a CacheView<'_, '_>,
    incoming: ModelId,
) -> impl Iterator<Item = ModelId> + 'a {
    (0..cache.pending.len())
        .map(ModelId)
        .filter(move |&m| m != incoming && !cache.pending[m.index()] && cache.tracker.contains(m))
}

/// Least-recently-used eviction.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lru;

impl EvictionPolicy for Lru {
    fn name(&self) -> &'static str {
        "lru"
    }

    fn victim(&self, cache: CacheView<'_, '_>, incoming: ModelId) -> Option<ModelId> {
        candidates(&cache, incoming).min_by(|a, b| {
            cache.last_access_s[a.index()]
                .total_cmp(&cache.last_access_s[b.index()])
                .then(a.cmp(b))
        })
    }
}

/// Least-frequently-used eviction (ties broken by recency).
#[derive(Debug, Clone, Copy, Default)]
pub struct Lfu;

impl EvictionPolicy for Lfu {
    fn name(&self) -> &'static str {
        "lfu"
    }

    fn victim(&self, cache: CacheView<'_, '_>, incoming: ModelId) -> Option<ModelId> {
        candidates(&cache, incoming).min_by(|a, b| {
            cache.access_count[a.index()]
                .cmp(&cache.access_count[b.index()])
                .then(cache.last_access_s[a.index()].total_cmp(&cache.last_access_s[b.index()]))
                .then(a.cmp(b))
        })
    }
}

/// Shared-block-aware greedy eviction: evict the model with the lowest
/// observed demand per reclaimable byte; refuse to evict models that
/// free nothing; refuse admissions whose demand density is below every
/// available victim's.
#[derive(Debug, Clone, Copy, Default)]
pub struct CostAwareLfu;

impl CostAwareLfu {
    /// Observed requests per reclaimable byte for a cached model, or
    /// `None` when evicting it frees no bytes (such a model is free to
    /// keep and never a victim).
    fn eviction_density(cache: &CacheView<'_, '_>, model: ModelId) -> Option<f64> {
        let freed = cache.release_bytes(model)?;
        if freed == 0 {
            return None;
        }
        Some(cache.access_count[model.index()] as f64 / freed as f64)
    }
}

impl EvictionPolicy for CostAwareLfu {
    fn name(&self) -> &'static str {
        "cost-aware"
    }

    fn victim(&self, cache: CacheView<'_, '_>, incoming: ModelId) -> Option<ModelId> {
        candidates(&cache, incoming)
            .filter_map(|m| Self::eviction_density(&cache, m).map(|d| (m, d)))
            .min_by(|(a, da), (b, db)| da.total_cmp(db).then(a.cmp(b)))
            .map(|(m, _)| m)
    }

    fn admits(&self, cache: CacheView<'_, '_>, incoming: ModelId) -> bool {
        let Some(marginal) = cache.marginal_bytes(incoming) else {
            return false;
        };
        // Admitting costs nothing (all blocks already present) or fits
        // without eviction: always worth it.
        if marginal == 0 || cache.tracker.used_bytes() + marginal <= cache.tracker.capacity_bytes()
        {
            return true;
        }
        // Otherwise compare demand densities. The engine records the
        // triggering request before asking, so a never-seen model still
        // carries at least one observed request.
        let incoming_density = cache.access_count[incoming.index()].max(1) as f64 / marginal as f64;
        match self.victim(cache, incoming) {
            Some(weakest) => Self::eviction_density(&cache, weakest)
                .is_some_and(|weakest_density| incoming_density >= weakest_density),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ServerCache;
    use trimcaching_modellib::ModelLibrary;

    /// m0/m1/m3 share a 100-byte block (m3 is nothing *but* that block);
    /// m2 is standalone (50 bytes).
    fn library() -> ModelLibrary {
        let mut b = ModelLibrary::builder();
        b.add_model_with_blocks("m0", "t", &[("shared".into(), 100), ("m0/own".into(), 10)])
            .unwrap();
        b.add_model_with_blocks("m1", "t", &[("shared".into(), 100), ("m1/own".into(), 20)])
            .unwrap();
        b.add_model_with_blocks("m2", "t", &[("m2/own".into(), 50)])
            .unwrap();
        b.add_model_with_blocks("m3", "t", &[("shared".into(), 100)])
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn lru_evicts_the_stalest_model() {
        let lib = library();
        let mut cache = ServerCache::new(&lib, 1_000);
        cache.insert(ModelId(0)).unwrap();
        cache.record_access(ModelId(0), 1.0);
        cache.insert(ModelId(1)).unwrap();
        cache.record_access(ModelId(1), 2.0);
        cache.insert(ModelId(2)).unwrap();
        cache.record_access(ModelId(2), 3.0);
        cache.record_access(ModelId(0), 9.0);
        assert_eq!(Lru.victim(cache.view(), ModelId(9)), Some(ModelId(1)));
        // The incoming model itself is never a victim.
        assert_eq!(Lru.victim(cache.view(), ModelId(1)), Some(ModelId(2)));
        assert!(Lru.admits(cache.view(), ModelId(2)));
    }

    #[test]
    fn lfu_evicts_the_least_requested_model() {
        let lib = library();
        let mut cache = ServerCache::new(&lib, 1_000);
        cache.insert(ModelId(0)).unwrap();
        cache.insert(ModelId(1)).unwrap();
        cache.record_access(ModelId(1), 1.5);
        for t in 0..3 {
            cache.record_access(ModelId(0), 2.0 + t as f64);
        }
        assert_eq!(Lfu.victim(cache.view(), ModelId(2)), Some(ModelId(1)));
    }

    #[test]
    fn empty_caches_offer_no_victim() {
        let lib = library();
        let cache = ServerCache::new(&lib, 1_000);
        assert_eq!(Lru.victim(cache.view(), ModelId(0)), None);
        assert_eq!(Lfu.victim(cache.view(), ModelId(0)), None);
        assert_eq!(CostAwareLfu.victim(cache.view(), ModelId(0)), None);
    }

    #[test]
    fn cost_aware_never_evicts_zero_gain_models() {
        let lib = library();
        let mut cache = ServerCache::new(&lib, 1_000);
        cache.insert(ModelId(0)).unwrap();
        cache.insert(ModelId(1)).unwrap();
        cache.insert(ModelId(2)).unwrap();
        // All three got one request, but m0/m1 free only their small
        // private blocks while m2 frees 50 bytes for the same demand:
        // lowest demand per reclaimable byte -> victim.
        cache.record_access(ModelId(2), 1.0);
        cache.record_access(ModelId(0), 4.0);
        cache.record_access(ModelId(1), 5.0);
        assert_eq!(
            CostAwareLfu.victim(cache.view(), ModelId(9)),
            Some(ModelId(2))
        );
        // m3 consists solely of the block m0/m1 still reference:
        // evicting it frees nothing, so the cost-aware policy never
        // selects it — while LRU (never accessed = stalest) would.
        cache.insert(ModelId(3)).unwrap(); // never accessed: stalest entry
        assert_eq!(Lru.victim(cache.view(), ModelId(9)), Some(ModelId(3)));
        assert_eq!(
            CostAwareLfu.victim(cache.view(), ModelId(9)),
            Some(ModelId(2))
        );
        // After evicting m2, the remaining victims all free > 0 bytes
        // except m3, which stays excluded.
        cache.evict(ModelId(2)).unwrap();
        let victim = CostAwareLfu.victim(cache.view(), ModelId(9));
        assert!(victim.is_some());
        assert_ne!(victim, Some(ModelId(3)));
    }

    #[test]
    fn pending_fills_are_never_victims() {
        let lib = library();
        let mut cache = ServerCache::new(&lib, 1_000);
        cache.insert(ModelId(2)).unwrap();
        cache.record_access(ModelId(2), 5.0);
        // m0's fill is in flight: despite being the stalest (never
        // accessed) and the densest reclaim, it must not be evicted.
        cache.start_fill(ModelId(0), 9.0, true).unwrap();
        for policy in [&Lru as &dyn EvictionPolicy, &Lfu, &CostAwareLfu] {
            assert_eq!(
                policy.victim(cache.view(), ModelId(1)),
                Some(ModelId(2)),
                "policy {} must skip the pending fill",
                policy.name()
            );
        }
    }

    #[test]
    fn cost_aware_admission_rejects_cold_large_models() {
        let lib = library();
        // Capacity fits m0+m1 (130 shared bytes) but nothing more.
        let mut cache = ServerCache::new(&lib, 130);
        cache.insert(ModelId(0)).unwrap();
        cache.insert(ModelId(1)).unwrap();
        for t in 0..20 {
            cache.record_access(ModelId(0), 3.0 + t as f64);
            cache.record_access(ModelId(1), 3.5 + t as f64);
        }
        // m2 (50 fresh bytes, 1 request) is far colder per byte than the
        // hot shared pair: the policy refuses the admission.
        assert!(!CostAwareLfu.admits(cache.view(), ModelId(2)));
        // But a model whose blocks are already fully present is free.
        assert!(CostAwareLfu.admits(cache.view(), ModelId(0)));
    }
}

//! Per-server online model caches with block-granular residency.
//!
//! A [`ServerCache`] wraps the scenario layer's [`StorageTracker`] —
//! which performs the paper's shared-storage accounting `g_m` (Eq. 7)
//! incrementally over refcounted parameter blocks — and adds two layers
//! of online bookkeeping on top:
//!
//! * **access statistics** (recency, frequency) that eviction policies
//!   rank victims by, and
//! * **block-granular transfer state**: which blocks have physically
//!   *arrived* versus being merely *referenced* by an in-flight fill.
//!
//! A fill reserves capacity up front through the tracker (so eviction
//! can never strand bytes an admitted fill still needs — the refcount
//! pins shared blocks) and the model stays *pending* until its
//! transfer-complete event fires; pending models are not servable and
//! never eviction victims. Fills for models whose missing blocks are
//! already on the wire for another fill join those transfers instead of
//! re-downloading the bytes.

use trimcaching_modellib::{ModelId, ModelLibrary};
use trimcaching_scenario::StorageTracker;

use crate::error::RuntimeError;
use crate::persist::PersistError;

/// Read-only view of one server cache handed to eviction policies.
#[derive(Debug, Clone, Copy)]
pub struct CacheView<'c, 'lib> {
    /// The shared-storage tracker (capacity, usage, marginal costs).
    pub tracker: &'c StorageTracker<'lib>,
    /// Last access time per model in simulated seconds
    /// (`f64::NEG_INFINITY` = never accessed).
    pub last_access_s: &'c [f64],
    /// Requests served from this cache per model.
    pub access_count: &'c [u64],
    /// Whether a model's fill is still in flight. Pending models hold
    /// reserved capacity but are not servable and never victims.
    pub pending: &'c [bool],
}

/// What a fill of one model must move and wait for, computed *before*
/// the fill is started (and before any eviction may change it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FillPlan {
    /// Bytes of blocks referenced by nothing on this server — the bytes
    /// a block-granular fill (or transient fetch) puts on the wire.
    pub missing_bytes: u64,
    /// Latest arrival time of needed blocks already in flight for other
    /// fills (`f64::NEG_INFINITY` when none) — a block-granular fill
    /// completes no earlier than this even if it moves nothing itself.
    /// Whole-model fills ignore it: their full artifact carries every
    /// byte.
    pub join_eta_s: f64,
}

/// One edge server's cache with online access statistics and
/// block-granular transfer state.
#[derive(Debug, Clone)]
pub struct ServerCache<'lib> {
    library: &'lib ModelLibrary,
    tracker: StorageTracker<'lib>,
    last_access_s: Vec<f64>,
    access_count: Vec<u64>,
    /// Fill in flight per model (reserved in the tracker, not servable).
    pending: Vec<bool>,
    /// Completion time of a pending model's fill.
    pending_eta_s: Vec<f64>,
    /// Whether a block has physically arrived (as opposed to being
    /// referenced by an in-flight fill).
    block_arrived: Vec<bool>,
    /// Arrival time of an in-flight block (valid while referenced and
    /// not yet arrived).
    block_eta_s: Vec<f64>,
    insertions: u64,
    evictions: u64,
}

impl<'lib> ServerCache<'lib> {
    /// Creates an empty cache of `capacity_bytes` over `library`.
    pub fn new(library: &'lib ModelLibrary, capacity_bytes: u64) -> Self {
        let n = library.num_models();
        let j = library.num_blocks();
        Self {
            library,
            tracker: StorageTracker::new(library, capacity_bytes),
            last_access_s: vec![f64::NEG_INFINITY; n],
            access_count: vec![0; n],
            pending: vec![false; n],
            pending_eta_s: vec![f64::NEG_INFINITY; n],
            block_arrived: vec![false; j],
            block_eta_s: vec![f64::NEG_INFINITY; j],
            insertions: 0,
            evictions: 0,
        }
    }

    /// The read-only view policies rank victims over.
    pub fn view(&self) -> CacheView<'_, 'lib> {
        CacheView {
            tracker: &self.tracker,
            last_access_s: &self.last_access_s,
            access_count: &self.access_count,
            pending: &self.pending,
        }
    }

    /// Whether `model` is servable from this cache: all of its blocks
    /// have arrived and its fill (if any) has completed.
    pub fn contains(&self, model: ModelId) -> bool {
        self.tracker.contains(model) && !self.pending.get(model.index()).copied().unwrap_or(false)
    }

    /// Whether a fill of `model` is currently in flight.
    pub fn is_pending(&self, model: ModelId) -> bool {
        self.pending.get(model.index()).copied().unwrap_or(false)
    }

    /// Completion time of a pending model's fill
    /// (`f64::NEG_INFINITY` when no fill is in flight).
    pub fn pending_eta_s(&self, model: ModelId) -> f64 {
        self.pending_eta_s
            .get(model.index())
            .copied()
            .unwrap_or(f64::NEG_INFINITY)
    }

    /// Whether `model` would fit right now (no evictions).
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown model.
    pub fn fits(&self, model: ModelId) -> Result<bool, RuntimeError> {
        Ok(self.tracker.fits(model)?)
    }

    /// Deduplicated bytes currently used (including pending reservations).
    pub fn used_bytes(&self) -> u64 {
        self.tracker.used_bytes()
    }

    /// Storage capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.tracker.capacity_bytes()
    }

    /// The servable cached models in ascending id order (pending fills
    /// are excluded — their bytes are reserved but not yet arrived).
    pub fn cached_models(&self) -> Vec<ModelId> {
        self.tracker
            .cached_models()
            .into_iter()
            .filter(|m| !self.pending[m.index()])
            .collect()
    }

    /// The models with fills currently in flight, in ascending id order
    /// — the deterministic iteration order fault handling aborts and
    /// retries them in.
    pub fn pending_models(&self) -> Vec<ModelId> {
        self.pending
            .iter()
            .enumerate()
            .filter(|(_, &p)| p)
            .map(|(i, _)| ModelId(i))
            .collect()
    }

    /// Last access time of `model` in simulated seconds
    /// (`f64::NEG_INFINITY` = never accessed or unknown).
    pub fn last_access_s(&self, model: ModelId) -> f64 {
        self.last_access_s
            .get(model.index())
            .copied()
            .unwrap_or(f64::NEG_INFINITY)
    }

    /// Cache insertions performed so far (instant inserts and fills).
    pub fn insertions(&self) -> u64 {
        self.insertions
    }

    /// Evictions performed so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// `(arrived, total)` block counts of `model` on this server — the
    /// per-request numerator and denominator of the block hit ratio.
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown model.
    pub fn arrived_blocks(&self, model: ModelId) -> Result<(usize, usize), RuntimeError> {
        let blocks = self.library().model(model).map_err(to_runtime)?.blocks();
        let arrived = blocks
            .iter()
            .filter(|b| self.block_arrived[b.index()])
            .count();
        Ok((arrived, blocks.len()))
    }

    fn library(&self) -> &'lib ModelLibrary {
        self.library
    }

    /// Records a request for `model` routed to this server at `now_s` —
    /// whether it hit, was admitted, or was refused; either way the
    /// model's observed-demand statistics at this server warm up.
    pub fn record_access(&mut self, model: ModelId, now_s: f64) {
        if let Some(slot) = self.last_access_s.get_mut(model.index()) {
            *slot = now_s;
            self.access_count[model.index()] += 1;
        }
    }

    /// Computes what a fill of `model` would move and wait for under the
    /// current block state. The plan is a pure read; eviction performed
    /// afterwards can only *grow* `missing_bytes` (freed shared blocks
    /// must be re-downloaded), so callers re-plan after making room.
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown model.
    pub fn fill_plan(&self, model: ModelId) -> Result<FillPlan, RuntimeError> {
        let mut missing = 0u64;
        let mut join_eta = f64::NEG_INFINITY;
        for &b in self.library().model(model).map_err(to_runtime)?.blocks() {
            if self.block_arrived[b.index()] {
                continue;
            }
            if self.tracker.block_refcount(b) == 0 {
                missing += self.library().block_size_bytes(b).map_err(to_runtime)?;
            } else {
                // Referenced but not arrived: on the wire for another
                // fill; a block-granular fill waits for it instead of
                // re-sending.
                join_eta = join_eta.max(self.block_eta_s[b.index()]);
            }
        }
        Ok(FillPlan {
            missing_bytes: missing,
            join_eta_s: join_eta,
        })
    }

    /// Starts a fill of `model` whose own transfer finishes at
    /// `transfer_finish_s`: reserves the model in the tracker (pinning
    /// shared blocks against eviction), marks its fresh blocks in
    /// flight, and returns `(completion_eta_s, reserved_bytes)`.
    ///
    /// With `join_inflight` (block granularity) the completion time is
    /// the latest arrival over the fill's own transfer and any needed
    /// blocks already in flight for other fills. Without it (whole-model
    /// granularity) the fill's full artifact carries every byte itself,
    /// so it completes exactly when its own transfer does — a
    /// sharing-blind baseline must never wait on transfers it does not
    /// use.
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown model.
    pub fn start_fill(
        &mut self,
        model: ModelId,
        transfer_finish_s: f64,
        join_inflight: bool,
    ) -> Result<(f64, u64), RuntimeError> {
        let mut eta = transfer_finish_s;
        let mut fresh: Vec<usize> = Vec::new();
        for &b in self.library().model(model).map_err(to_runtime)?.blocks() {
            if self.block_arrived[b.index()] {
                continue;
            }
            if self.tracker.block_refcount(b) == 0 {
                fresh.push(b.index());
            } else if join_inflight {
                eta = eta.max(self.block_eta_s[b.index()]);
            }
        }
        let reserved = self.tracker.add(model)?;
        for j in fresh {
            self.block_eta_s[j] = transfer_finish_s;
        }
        self.pending[model.index()] = true;
        self.pending_eta_s[model.index()] = eta;
        self.insertions += 1;
        Ok((eta, reserved))
    }

    /// Completes a pending fill: all of the model's blocks have arrived
    /// and the model becomes servable.
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown model.
    pub fn complete_fill(&mut self, model: ModelId) -> Result<(), RuntimeError> {
        for &b in self.library().model(model).map_err(to_runtime)?.blocks() {
            self.block_arrived[b.index()] = true;
            self.block_eta_s[b.index()] = f64::NEG_INFINITY;
        }
        self.pending[model.index()] = false;
        self.pending_eta_s[model.index()] = f64::NEG_INFINITY;
        Ok(())
    }

    /// Aborts a pending fill (the server or its link went down before
    /// the transfer completed): releases the tracker reservation and
    /// un-marks blocks the dead transfer would have delivered, returning
    /// the bytes freed. Blocks still referenced by other resident models
    /// or fills stay put — but note a server failure aborts *every*
    /// pending fill on that server, so blocks pinned only by doomed
    /// sibling fills are released as the loop reaches them.
    ///
    /// # Errors
    ///
    /// Returns an error if no fill of `model` is in flight.
    pub fn abort_fill(&mut self, model: ModelId) -> Result<u64, RuntimeError> {
        if !self.is_pending(model) {
            return Err(RuntimeError::Internal {
                reason: format!(
                    "abort_fill on model {} with no fill in flight",
                    model.index()
                ),
            });
        }
        let freed = self.tracker.remove(model)?;
        self.pending[model.index()] = false;
        self.pending_eta_s[model.index()] = f64::NEG_INFINITY;
        for &b in self.library().model(model).map_err(to_runtime)?.blocks() {
            if self.tracker.block_refcount(b) == 0 {
                self.block_arrived[b.index()] = false;
                self.block_eta_s[b.index()] = f64::NEG_INFINITY;
            }
        }
        Ok(freed)
    }

    /// Inserts `model` instantly (capacity is the caller's
    /// responsibility — the engine evicts via the policy first). All of
    /// its blocks are marked arrived. Returns the deduplicated bytes
    /// provisioned. Access statistics are *not* touched.
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown model.
    pub fn insert(&mut self, model: ModelId) -> Result<u64, RuntimeError> {
        let added = self.tracker.add(model)?;
        self.mark_arrived(model)?;
        self.insertions += 1;
        Ok(added)
    }

    /// Warm-starts the cache with `model` (e.g. from an offline
    /// TrimCaching placement) without counting it as an online insertion
    /// or an access. Returns the deduplicated bytes provisioned.
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown model.
    pub fn preload(&mut self, model: ModelId) -> Result<u64, RuntimeError> {
        let added = self.tracker.add(model)?;
        self.mark_arrived(model)?;
        Ok(added)
    }

    fn mark_arrived(&mut self, model: ModelId) -> Result<(), RuntimeError> {
        for &b in self.library().model(model).map_err(to_runtime)?.blocks() {
            self.block_arrived[b.index()] = true;
        }
        Ok(())
    }

    /// Evicts `model`, returning the bytes freed (possibly zero when all
    /// its blocks are shared with other cached models). Blocks whose
    /// refcount drops to zero are physically dropped; blocks still
    /// referenced — including by pending fills — stay resident, so an
    /// eviction can never strand bytes another cached model needs.
    /// Pending models must not be evicted (they are excluded from every
    /// policy's candidate set).
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown model.
    pub fn evict(&mut self, model: ModelId) -> Result<u64, RuntimeError> {
        debug_assert!(!self.is_pending(model), "pending fills must not be evicted");
        let freed = self.tracker.remove(model)?;
        for &b in self.library().model(model).map_err(to_runtime)?.blocks() {
            if self.tracker.block_refcount(b) == 0 {
                self.block_arrived[b.index()] = false;
                self.block_eta_s[b.index()] = f64::NEG_INFINITY;
            }
        }
        self.evictions += 1;
        Ok(freed)
    }

    /// Captures the cache's full mutable state for checkpointing. The
    /// tracker is represented by its resident model set (including
    /// pending fills — their reservations hold bytes); replaying
    /// `tracker.add` over that set reproduces the refcounts exactly
    /// because shared-storage accounting is order-independent.
    pub(crate) fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            resident: self.tracker.cached_models(),
            last_access_s: self.last_access_s.clone(),
            access_count: self.access_count.clone(),
            pending: self.pending.clone(),
            pending_eta_s: self.pending_eta_s.clone(),
            block_arrived: self.block_arrived.clone(),
            block_eta_s: self.block_eta_s.clone(),
            insertions: self.insertions,
            evictions: self.evictions,
        }
    }

    /// Restores the state captured by [`ServerCache::snapshot`] into a
    /// freshly constructed cache over the same library and capacity.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Mismatch`] if a per-model or per-block
    /// vector does not match the library, and an error if a resident
    /// model id is unknown to the library or does not fit (a corrupt or
    /// mismatched checkpoint).
    pub(crate) fn restore(&mut self, snapshot: CacheSnapshot) -> Result<(), RuntimeError> {
        let (n, j) = (self.library.num_models(), self.library.num_blocks());
        let per_model = [
            snapshot.last_access_s.len(),
            snapshot.access_count.len(),
            snapshot.pending.len(),
            snapshot.pending_eta_s.len(),
        ];
        let per_block = [snapshot.block_arrived.len(), snapshot.block_eta_s.len()];
        if per_model.iter().any(|&len| len != n) || per_block.iter().any(|&len| len != j) {
            return Err(PersistError::Mismatch {
                reason: format!(
                    "checkpointed cache state has per-model lengths {per_model:?} and per-block \
                     lengths {per_block:?}, but the library has {n} models and {j} blocks"
                ),
            }
            .into());
        }
        for m in &snapshot.resident {
            self.tracker.add(*m)?;
        }
        self.last_access_s = snapshot.last_access_s;
        self.access_count = snapshot.access_count;
        self.pending = snapshot.pending;
        self.pending_eta_s = snapshot.pending_eta_s;
        self.block_arrived = snapshot.block_arrived;
        self.block_eta_s = snapshot.block_eta_s;
        self.insertions = snapshot.insertions;
        self.evictions = snapshot.evictions;
        Ok(())
    }
}

/// The checkpointable state of one [`ServerCache`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CacheSnapshot {
    /// Models resident in the tracker (servable *and* pending).
    pub resident: Vec<ModelId>,
    pub last_access_s: Vec<f64>,
    pub access_count: Vec<u64>,
    pub pending: Vec<bool>,
    pub pending_eta_s: Vec<f64>,
    pub block_arrived: Vec<bool>,
    pub block_eta_s: Vec<f64>,
    pub insertions: u64,
    pub evictions: u64,
}

fn to_runtime(e: trimcaching_modellib::ModelLibError) -> RuntimeError {
    RuntimeError::from(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trimcaching_modellib::ModelLibrary;

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
    fn insert_access_evict_round_trip() {
        let lib = library();
        let mut cache = ServerCache::new(&lib, 200);
        assert!(!cache.contains(ModelId(0)));
        assert!(cache.fits(ModelId(0)).unwrap());
        assert_eq!(cache.insert(ModelId(0)).unwrap(), 110);
        assert_eq!(cache.insert(ModelId(1)).unwrap(), 20);
        assert_eq!(cache.used_bytes(), 130);
        assert_eq!(cache.capacity_bytes(), 200);
        cache.record_access(ModelId(0), 3.0);
        cache.record_access(ModelId(1), 2.0);
        cache.record_access(ModelId(0), 3.5);
        let view = cache.view();
        assert_eq!(view.last_access_s[0], 3.5);
        assert_eq!(view.last_access_s[1], 2.0);
        assert_eq!(view.access_count[0], 2);
        assert_eq!(view.access_count[1], 1);
        // Evicting m0 frees only its private block.
        assert_eq!(cache.evict(ModelId(0)).unwrap(), 10);
        assert_eq!(cache.insertions(), 2);
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.cached_models(), vec![ModelId(1)]);
    }

    #[test]
    fn restore_rejects_vectors_that_do_not_match_the_library() {
        let lib = library();
        let mut cache = ServerCache::new(&lib, 200);
        cache.insert(ModelId(0)).unwrap();
        let good = cache.snapshot();
        let mut fresh = ServerCache::new(&lib, 200);
        fresh.restore(good.clone()).unwrap();
        assert_eq!(fresh.snapshot(), good);

        // Emptied per-model and per-block vectors would index out of
        // bounds on the first request after resume.
        let mut no_models = good.clone();
        no_models.access_count.clear();
        let mut no_blocks = good;
        no_blocks.block_eta_s.clear();
        for snapshot in [no_models, no_blocks] {
            let err = ServerCache::new(&lib, 200).restore(snapshot).unwrap_err();
            assert!(
                matches!(err, RuntimeError::Persist(PersistError::Mismatch { .. })),
                "{err}"
            );
        }
    }

    #[test]
    fn preload_counts_neither_insertions_nor_accesses() {
        let lib = library();
        let mut cache = ServerCache::new(&lib, 200);
        assert_eq!(cache.preload(ModelId(0)).unwrap(), 110);
        assert!(cache.contains(ModelId(0)));
        assert_eq!(cache.insertions(), 0);
        assert_eq!(cache.view().access_count[0], 0);
        assert_eq!(cache.view().last_access_s[0], f64::NEG_INFINITY);
    }

    #[test]
    fn out_of_range_access_is_ignored() {
        let lib = library();
        let mut cache = ServerCache::new(&lib, 100);
        cache.record_access(ModelId(99), 1.0);
        assert!(cache.view().access_count.iter().all(|&c| c == 0));
    }

    #[test]
    fn fill_plan_accounts_resident_and_inflight_blocks() {
        let lib = library();
        let mut cache = ServerCache::new(&lib, 1_000);
        // Nothing resident: everything is missing.
        let plan = cache.fill_plan(ModelId(0)).unwrap();
        assert_eq!(plan.missing_bytes, 110);
        assert_eq!(plan.join_eta_s, f64::NEG_INFINITY);

        // Start m0's fill; m1 now only moves its private block and must
        // wait for the shared block already on the wire.
        let (eta, reserved) = cache.start_fill(ModelId(0), 4.0, true).unwrap();
        assert_eq!(eta, 4.0);
        assert_eq!(reserved, 110);
        assert!(cache.is_pending(ModelId(0)));
        assert!(!cache.contains(ModelId(0)));
        let plan = cache.fill_plan(ModelId(1)).unwrap();
        assert_eq!(plan.missing_bytes, 20);
        assert_eq!(plan.join_eta_s, 4.0);

        // m1's fill (own transfer done at 2.0) completes only when the
        // shared block lands at 4.0.
        let (eta, reserved) = cache.start_fill(ModelId(1), 2.0, true).unwrap();
        assert_eq!(eta, 4.0);
        assert_eq!(reserved, 20);

        cache.complete_fill(ModelId(0)).unwrap();
        assert!(cache.contains(ModelId(0)));
        assert!(!cache.contains(ModelId(1)));
        cache.complete_fill(ModelId(1)).unwrap();
        assert!(cache.contains(ModelId(1)));
        // Once everything arrived, a fill of m0 would move nothing.
        assert_eq!(cache.arrived_blocks(ModelId(0)).unwrap(), (2, 2));
    }

    #[test]
    fn whole_model_fills_never_wait_on_other_transfers() {
        let lib = library();
        let mut cache = ServerCache::new(&lib, 1_000);
        // m0's fill has the shared block in flight until 4.0; a
        // whole-model fill of m1 carries the shared bytes in its own
        // artifact (done at 2.0), so it completes at 2.0, not 4.0.
        cache.start_fill(ModelId(0), 4.0, false).unwrap();
        let (eta, _) = cache.start_fill(ModelId(1), 2.0, false).unwrap();
        assert_eq!(eta, 2.0);
        cache.complete_fill(ModelId(1)).unwrap();
        assert!(cache.contains(ModelId(1)));
        // m1's artifact delivered the shared block: m0 is only waiting
        // for its own transfer now, and completes as scheduled.
        assert_eq!(cache.arrived_blocks(ModelId(0)).unwrap(), (1, 2));
        cache.complete_fill(ModelId(0)).unwrap();
        assert!(cache.contains(ModelId(0)));
    }

    #[test]
    fn pending_models_are_invisible_to_serving_and_reports() {
        let lib = library();
        let mut cache = ServerCache::new(&lib, 1_000);
        cache.insert(ModelId(2)).unwrap();
        cache.start_fill(ModelId(0), 9.0, true).unwrap();
        assert_eq!(cache.cached_models(), vec![ModelId(2)]);
        assert_eq!(cache.pending_eta_s(ModelId(0)), 9.0);
        assert!(cache.view().pending[0]);
        assert!(!cache.view().pending[2]);
        assert_eq!(cache.arrived_blocks(ModelId(0)).unwrap(), (0, 2));
        cache.complete_fill(ModelId(0)).unwrap();
        assert_eq!(cache.cached_models(), vec![ModelId(0), ModelId(2)]);
        assert_eq!(cache.pending_eta_s(ModelId(0)), f64::NEG_INFINITY);
    }

    #[test]
    fn aborting_a_fill_releases_its_reservation_and_wire_state() {
        let lib = library();
        let mut cache = ServerCache::new(&lib, 200);
        assert!(cache.abort_fill(ModelId(0)).is_err(), "nothing in flight");
        cache.start_fill(ModelId(0), 4.0, true).unwrap();
        assert_eq!(cache.pending_models(), vec![ModelId(0)]);
        assert_eq!(cache.abort_fill(ModelId(0)).unwrap(), 110);
        assert_eq!(cache.used_bytes(), 0);
        assert!(!cache.is_pending(ModelId(0)));
        assert_eq!(cache.pending_eta_s(ModelId(0)), f64::NEG_INFINITY);
        // The shared block is no longer "on the wire": a fresh fill
        // plan moves every byte again.
        let plan = cache.fill_plan(ModelId(1)).unwrap();
        assert_eq!(plan.missing_bytes, 120);
        assert_eq!(plan.join_eta_s, f64::NEG_INFINITY);
        // Aborting one of two sibling fills keeps shared blocks pinned
        // by the survivor; aborting the survivor releases them.
        cache.start_fill(ModelId(0), 4.0, true).unwrap();
        cache.start_fill(ModelId(1), 5.0, true).unwrap();
        cache.abort_fill(ModelId(0)).unwrap();
        assert!(cache.fill_plan(ModelId(0)).unwrap().join_eta_s > 0.0);
        cache.abort_fill(ModelId(1)).unwrap();
        assert_eq!(cache.used_bytes(), 0);
    }

    #[test]
    fn evicting_a_sharer_keeps_blocks_pinned_by_a_pending_fill() {
        let lib = library();
        let mut cache = ServerCache::new(&lib, 1_000);
        cache.insert(ModelId(0)).unwrap();
        // m1's fill joins: the shared block is arrived, only 20 bytes move.
        let plan = cache.fill_plan(ModelId(1)).unwrap();
        assert_eq!(plan.missing_bytes, 20);
        cache.start_fill(ModelId(1), 5.0, true).unwrap();
        // Evicting m0 while m1 is pending frees only m0's private block:
        // the shared block's refcount is held by the pending fill.
        assert_eq!(cache.evict(ModelId(0)).unwrap(), 10);
        cache.complete_fill(ModelId(1)).unwrap();
        assert!(cache.contains(ModelId(1)));
        assert_eq!(cache.arrived_blocks(ModelId(1)).unwrap(), (2, 2));
    }
}

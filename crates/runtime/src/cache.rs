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
//!
//! The cache also keeps three **residency tables**, per model: its
//! marginal bytes (blocks no resident model references), the bytes it
//! alone references, and how many of its blocks have arrived. They are
//! updated on every refcount or arrival transition of a block, through
//! [`ModelLibrary::models_of_block`], so admission, victim ranking, fill
//! plans and block hit counts are lookups instead of block walks. The
//! tables are derived state: restoring a checkpoint rebuilds them from
//! the tracker and the arrived flags, and checkpoints never store them.

use trimcaching_modellib::{BlockId, ModelId, ModelLibError, ModelLibrary};
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
    /// Per-model marginal bytes (see [`CacheView::marginal_bytes`]).
    marginal_bytes: &'c [u64],
    /// Per-model bytes of blocks with refcount exactly one, resident or
    /// not (see [`CacheView::release_bytes`]).
    sole_bytes: &'c [u64],
}

impl CacheView<'_, '_> {
    /// Bytes adding `model` would provision — what
    /// [`StorageTracker::marginal_bytes`] computes, read from the cache's
    /// residency table. `None` for an unknown model.
    pub fn marginal_bytes(&self, model: ModelId) -> Option<u64> {
        self.marginal_bytes.get(model.index()).copied()
    }

    /// Bytes evicting `model` would free (zero when it is not resident)
    /// — what [`StorageTracker::release_bytes`] computes, read from the
    /// cache's residency table. `None` for an unknown model.
    pub fn release_bytes(&self, model: ModelId) -> Option<u64> {
        let sole = self.sole_bytes.get(model.index()).copied()?;
        Some(if self.tracker.contains(model) {
            sole
        } else {
            0
        })
    }
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
///
/// Reads of the residency tables are O(1). Each residency change (a fill
/// started, completed or aborted, an insert, preload or eviction)
/// updates the table entries of every model sharing a touched block, so
/// it costs the sum of |I_b| over the model's blocks, where |I_b| is the
/// number of models using block `b`. The block-sharing degree times the
/// miss rate therefore sets what the tables cost a run.
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
    /// Residency table: per model, the bytes of its blocks with
    /// refcount zero — the tracker's marginal bytes.
    marginal_bytes: Vec<u64>,
    /// Residency table: per model, the bytes of its blocks with
    /// refcount one — its release bytes while it is resident.
    sole_bytes: Vec<u64>,
    /// Residency table: per model, how many of its blocks have arrived.
    arrived_blocks: Vec<u32>,
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
            // Nothing is referenced yet: every model's blocks are
            // marginal, none is sole or arrived. (Every id `model_ids`
            // yields is in range, so the size lookup cannot fail.)
            marginal_bytes: library
                .model_ids()
                .map(|m| library.model_size_bytes(m).unwrap_or(0))
                .collect(),
            sole_bytes: vec![0; n],
            arrived_blocks: vec![0; n],
            insertions: 0,
            evictions: 0,
        }
    }

    /// Recomputes the residency tables from the tracker's refcounts and
    /// the arrived flags by walking every model's blocks.
    fn rebuild_residency(&mut self) {
        let block_bytes: Vec<u64> = self.library.blocks().map(|b| b.size_bytes()).collect();
        self.marginal_bytes.clear();
        self.sole_bytes.clear();
        self.arrived_blocks.clear();
        for model in self.library.models() {
            let (mut marginal, mut sole, mut arrived) = (0u64, 0u64, 0u32);
            for &b in model.blocks() {
                match self.tracker.block_refcount(b) {
                    0 => marginal += block_bytes[b.index()],
                    1 => sole += block_bytes[b.index()],
                    _ => {}
                }
                arrived += u32::from(self.block_arrived[b.index()]);
            }
            self.marginal_bytes.push(marginal);
            self.sole_bytes.push(sole);
            self.arrived_blocks.push(arrived);
        }
    }

    /// Adds `model` to the tracker and folds each of its blocks'
    /// refcount step into the byte tables of every model sharing the
    /// block. Returns the bytes provisioned.
    fn track_add(&mut self, model: ModelId) -> Result<u64, RuntimeError> {
        if self.tracker.contains(model) {
            return Ok(0);
        }
        let added = self.tracker.add(model)?;
        let library = self.library;
        for &b in library.model(model).map_err(to_runtime)?.blocks() {
            let after = self.tracker.block_refcount(b);
            self.note_refcount(b, after - 1, after)?;
        }
        Ok(added)
    }

    /// Removes `model` from the tracker, the inverse of
    /// [`ServerCache::track_add`]. Returns the bytes freed.
    fn track_remove(&mut self, model: ModelId) -> Result<u64, RuntimeError> {
        if !self.tracker.contains(model) {
            return Ok(0);
        }
        let freed = self.tracker.remove(model)?;
        let library = self.library;
        for &b in library.model(model).map_err(to_runtime)?.blocks() {
            let after = self.tracker.block_refcount(b);
            self.note_refcount(b, after + 1, after)?;
        }
        Ok(freed)
    }

    /// Moves block `b`'s bytes between the byte tables of every model
    /// containing it, for a refcount step `before -> after`.
    fn note_refcount(&mut self, b: BlockId, before: u32, after: u32) -> Result<(), RuntimeError> {
        let size = self.library.block_size_bytes(b).map_err(to_runtime)?;
        for &j in self.library.models_of_block(b).map_err(to_runtime)? {
            let j = j.index();
            match before {
                0 => self.marginal_bytes[j] -= size,
                1 => self.sole_bytes[j] -= size,
                _ => {}
            }
            match after {
                0 => self.marginal_bytes[j] += size,
                1 => self.sole_bytes[j] += size,
                _ => {}
            }
        }
        Ok(())
    }

    /// Sets block `b`'s arrived flag, counting a change in the arrived
    /// table of every model containing it.
    fn set_arrived(&mut self, b: BlockId, arrived: bool) -> Result<(), RuntimeError> {
        if self.block_arrived[b.index()] == arrived {
            return Ok(());
        }
        self.block_arrived[b.index()] = arrived;
        for &j in self.library.models_of_block(b).map_err(to_runtime)? {
            let count = &mut self.arrived_blocks[j.index()];
            if arrived {
                *count += 1;
            } else {
                *count -= 1;
            }
        }
        Ok(())
    }

    /// Drops every block of `model` that no resident model references
    /// any more: it is neither arrived nor in flight.
    fn drop_unreferenced_blocks(&mut self, model: ModelId) -> Result<(), RuntimeError> {
        let library = self.library;
        for &b in library.model(model).map_err(to_runtime)?.blocks() {
            if self.tracker.block_refcount(b) == 0 {
                self.set_arrived(b, false)?;
                self.block_eta_s[b.index()] = f64::NEG_INFINITY;
            }
        }
        Ok(())
    }

    /// Checks the invariant the fill-plan lookup relies on: a block no
    /// resident model references has not arrived.
    #[cfg(test)]
    fn assert_invariants(&self) {
        for (j, &arrived) in self.block_arrived.iter().enumerate() {
            assert!(
                !arrived || self.tracker.block_refcount(BlockId(j)) > 0,
                "block {j} is arrived with refcount 0"
            );
        }
    }

    /// The read-only view policies rank victims over.
    pub fn view(&self) -> CacheView<'_, 'lib> {
        CacheView {
            tracker: &self.tracker,
            last_access_s: &self.last_access_s,
            access_count: &self.access_count,
            pending: &self.pending,
            marginal_bytes: &self.marginal_bytes,
            sole_bytes: &self.sole_bytes,
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
        let Some(&marginal) = self.marginal_bytes.get(model.index()) else {
            return Err(to_runtime(ModelLibError::IndexOutOfRange {
                entity: "model",
                index: model.index(),
                len: self.marginal_bytes.len(),
            }));
        };
        Ok(self.tracker.used_bytes() + marginal <= self.tracker.capacity_bytes())
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
        let total = self
            .library
            .model(model)
            .map_err(to_runtime)?
            .blocks()
            .len();
        Ok((self.arrived_blocks[model.index()] as usize, total))
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
        let blocks = self.library.model(model).map_err(to_runtime)?.blocks();
        // A block with refcount zero has not arrived, so the bytes to
        // move are exactly the marginal bytes.
        let missing_bytes = self.marginal_bytes[model.index()];
        let mut join_eta_s = f64::NEG_INFINITY;
        if (self.arrived_blocks[model.index()] as usize) < blocks.len() {
            for &b in blocks {
                // Referenced but not arrived: on the wire for another
                // fill; a block-granular fill waits for it instead of
                // re-sending.
                if !self.block_arrived[b.index()] && self.tracker.block_refcount(b) > 0 {
                    join_eta_s = join_eta_s.max(self.block_eta_s[b.index()]);
                }
            }
        }
        Ok(FillPlan {
            missing_bytes,
            join_eta_s,
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
        let library = self.library;
        let blocks = library.model(model).map_err(to_runtime)?.blocks();
        let mut eta = transfer_finish_s;
        for &b in blocks {
            if self.block_arrived[b.index()] {
                continue;
            }
            if self.tracker.block_refcount(b) == 0 {
                // Fresh: this fill puts the block on the wire.
                self.block_eta_s[b.index()] = transfer_finish_s;
            } else if join_inflight {
                eta = eta.max(self.block_eta_s[b.index()]);
            }
        }
        let reserved = self.track_add(model)?;
        self.pending[model.index()] = true;
        self.pending_eta_s[model.index()] = eta;
        self.insertions += 1;
        #[cfg(test)]
        self.assert_invariants();
        Ok((eta, reserved))
    }

    /// Completes a pending fill: all of the model's blocks have arrived
    /// and the model becomes servable.
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown model.
    pub fn complete_fill(&mut self, model: ModelId) -> Result<(), RuntimeError> {
        let library = self.library;
        for &b in library.model(model).map_err(to_runtime)?.blocks() {
            self.set_arrived(b, true)?;
            self.block_eta_s[b.index()] = f64::NEG_INFINITY;
        }
        self.pending[model.index()] = false;
        self.pending_eta_s[model.index()] = f64::NEG_INFINITY;
        #[cfg(test)]
        self.assert_invariants();
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
        let freed = self.track_remove(model)?;
        self.pending[model.index()] = false;
        self.pending_eta_s[model.index()] = f64::NEG_INFINITY;
        self.drop_unreferenced_blocks(model)?;
        #[cfg(test)]
        self.assert_invariants();
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
        let added = self.preload(model)?;
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
        let added = self.track_add(model)?;
        let library = self.library;
        for &b in library.model(model).map_err(to_runtime)?.blocks() {
            self.set_arrived(b, true)?;
        }
        #[cfg(test)]
        self.assert_invariants();
        Ok(added)
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
        let freed = self.track_remove(model)?;
        self.drop_unreferenced_blocks(model)?;
        self.evictions += 1;
        #[cfg(test)]
        self.assert_invariants();
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
    /// freshly constructed cache over the same library and capacity, and
    /// rebuilds the residency tables from it.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Mismatch`] if a per-model or per-block
    /// vector does not match the library, [`PersistError::Corrupt`] if the
    /// resident set needs more than the cache's capacity, an arrived
    /// block belongs to no resident model or a pending fill's model is
    /// not resident, and an error if a resident model id is unknown to
    /// the library (a corrupt or mismatched checkpoint).
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
        // Every insertion and fill is admitted only if it fits, so a run
        // never holds more than the capacity; `add` does not check it.
        if self.tracker.used_bytes() > self.tracker.capacity_bytes() {
            return Err(PersistError::Corrupt {
                context: format!(
                    "checkpointed resident models need {} bytes but the cache holds {}",
                    self.tracker.used_bytes(),
                    self.tracker.capacity_bytes()
                ),
            }
            .into());
        }
        // Only a resident model's fill can deliver a block, and the fill
        // plans read arrived blocks as referenced ones.
        let unreferenced = (0..j)
            .find(|&b| snapshot.block_arrived[b] && self.tracker.block_refcount(BlockId(b)) == 0);
        if let Some(b) = unreferenced {
            return Err(PersistError::Corrupt {
                context: format!(
                    "checkpointed block {b} has arrived but no resident model uses it"
                ),
            }
            .into());
        }
        // A pending fill holds its model's reservation, so its completion
        // only ever marks referenced blocks arrived.
        let orphan_fill =
            (0..n).find(|&i| snapshot.pending[i] && !self.tracker.contains(ModelId(i)));
        if let Some(i) = orphan_fill {
            return Err(PersistError::Corrupt {
                context: format!("checkpointed model {i} has a pending fill but is not resident"),
            }
            .into());
        }
        self.last_access_s = snapshot.last_access_s;
        self.access_count = snapshot.access_count;
        self.pending = snapshot.pending;
        self.pending_eta_s = snapshot.pending_eta_s;
        self.block_arrived = snapshot.block_arrived;
        self.block_eta_s = snapshot.block_eta_s;
        self.insertions = snapshot.insertions;
        self.evictions = snapshot.evictions;
        self.rebuild_residency();
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

fn to_runtime(e: ModelLibError) -> RuntimeError {
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
    /// Requires every residency-table entry to equal the walk it
    /// replaces: the tracker's `marginal_bytes`/`release_bytes` and a
    /// count of the model's arrived blocks.
    fn assert_tables_match_walks(cache: &ServerCache<'_>, context: &str) {
        let view = cache.view();
        for model in cache.library.model_ids() {
            let blocks = cache.library.model(model).unwrap().blocks();
            let arrived = blocks
                .iter()
                .filter(|b| cache.block_arrived[b.index()])
                .count();
            assert_eq!(
                view.marginal_bytes(model),
                Some(view.tracker.marginal_bytes(model).unwrap()),
                "marginal bytes of {model:?} {context}"
            );
            assert_eq!(
                view.release_bytes(model),
                Some(view.tracker.release_bytes(model).unwrap()),
                "release bytes of {model:?} {context}"
            );
            assert_eq!(
                cache.arrived_blocks(model).unwrap(),
                (arrived, blocks.len()),
                "arrived blocks of {model:?} {context}"
            );
            assert_eq!(
                cache.fill_plan(model).unwrap().missing_bytes,
                blocks
                    .iter()
                    .filter(|b| {
                        !cache.block_arrived[b.index()] && view.tracker.block_refcount(**b) == 0
                    })
                    .map(|b| cache.library.block_size_bytes(*b).unwrap())
                    .sum::<u64>(),
                "missing bytes of {model:?} {context}"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random preload / start / complete / abort / evict sequences on
        /// a library whose backbone blocks are shared: after every
        /// operation, and after a snapshot/restore round trip, each
        /// residency-table entry equals its block walk.
        #[test]
        fn residency_tables_equal_the_block_walks(
            seed in 0u64..1_000_000,
            models_per_backbone in 1usize..5,
            steps in 1usize..60,
        ) {
            use rand::{Rng, SeedableRng};
            let lib = trimcaching_modellib::builders::SpecialCaseBuilder::paper_setup()
                .models_per_backbone(models_per_backbone)
                .build(seed);
            let n = lib.num_models();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut cache = ServerCache::new(&lib, u64::MAX);
            assert_tables_match_walks(&cache, "when empty");
            for step in 0..steps {
                let model = ModelId(rng.gen_range(0..n));
                let op = rng.gen_range(0..5u32);
                match op {
                    0 if !cache.is_pending(model) => {
                        cache.preload(model).unwrap();
                    }
                    1 if !cache.view().tracker.contains(model) => {
                        let finish = rng.gen_range(0.0..10.0);
                        cache.start_fill(model, finish, rng.gen_bool(0.5)).unwrap();
                    }
                    2 if cache.is_pending(model) => cache.complete_fill(model).unwrap(),
                    3 if cache.is_pending(model) => {
                        cache.abort_fill(model).unwrap();
                    }
                    4 if !cache.is_pending(model) => {
                        cache.evict(model).unwrap();
                    }
                    _ => continue,
                }
                let context = format!("after op {op} on {model:?} at step {step}");
                assert_tables_match_walks(&cache, &context);
                let mut restored = ServerCache::new(&lib, u64::MAX);
                restored.restore(cache.snapshot()).unwrap();
                assert_tables_match_walks(&restored, &format!("{context}, restored"));
                assert_eq!(restored.marginal_bytes, cache.marginal_bytes);
                assert_eq!(restored.sole_bytes, cache.sole_bytes);
                assert_eq!(restored.arrived_blocks, cache.arrived_blocks);
            }
        }
    }

    #[test]
    fn restore_rejects_a_resident_set_over_capacity() {
        let lib = library();
        let mut cache = ServerCache::new(&lib, 200);
        cache.insert(ModelId(0)).unwrap();
        cache.insert(ModelId(2)).unwrap();
        let snapshot = cache.snapshot();
        // 160 bytes resident: restoring at exactly 160 succeeds, one
        // byte less is a corrupt checkpoint.
        ServerCache::new(&lib, 160)
            .restore(snapshot.clone())
            .unwrap();
        let err = ServerCache::new(&lib, 159).restore(snapshot).unwrap_err();
        assert!(
            matches!(err, RuntimeError::Persist(PersistError::Corrupt { .. })),
            "{err}"
        );
    }

    #[test]
    fn restore_rejects_an_arrived_block_no_resident_model_uses() {
        let lib = library();
        let mut cache = ServerCache::new(&lib, 200);
        cache.insert(ModelId(2)).unwrap();
        let mut snapshot = cache.snapshot();
        // Block 0 is the shared block of m0 and m1, neither resident.
        snapshot.block_arrived[0] = true;
        let err = ServerCache::new(&lib, 200).restore(snapshot).unwrap_err();
        assert!(
            matches!(err, RuntimeError::Persist(PersistError::Corrupt { .. })),
            "{err}"
        );
    }

    #[test]
    fn restore_rejects_a_pending_fill_of_a_model_not_resident() {
        let lib = library();
        let mut cache = ServerCache::new(&lib, 200);
        cache.insert(ModelId(2)).unwrap();
        let mut snapshot = cache.snapshot();
        // m0 holds no reservation, so completing its fill would mark
        // blocks with refcount 0 arrived.
        snapshot.pending[0] = true;
        snapshot.pending_eta_s[0] = 1.0;
        let err = ServerCache::new(&lib, 200).restore(snapshot).unwrap_err();
        assert!(
            matches!(err, RuntimeError::Persist(PersistError::Corrupt { .. })),
            "{err}"
        );
    }
}

//! The run coordinator: `R` region engines over one shared radio
//! snapshot.
//!
//! Every serving run — classic or sharded — is a [`ShardedServeEngine`].
//! It partitions the deployment into `R` vertical strips over the
//! server x-coordinates. Each strip becomes a *region* engine that owns
//! the strip's servers (caches, backhaul links, fault transitions,
//! regional controller) and the users currently inside the strip
//! (request streams, kinematics, handover accounting), with its own
//! event queue and its own RNG stream seeded `run seed + region id`.
//! The classic [`ServeEngine`] is `R = 1`: one region owning every
//! server and user, so the classic trace is the one-region trace by
//! construction.
//!
//! A region holds caches, backhaul links and down flags for its own
//! servers only, reached through one global → member slot index derived
//! from the partition. Events and checkpoints keep global server ids;
//! the coordinator takes each server's state and final cache from its
//! owner.
//!
//! The coordinator owns the one request workload of the run, the one
//! radio snapshot (coverage, allocation and rates of every user; the
//! eligibility indicator the paper's placement reads is derived from it
//! for each re-plan once a mobility boundary has moved a user), the
//! per-user primary servers and the ownership map. Regions borrow them
//! read-only. City-scale scenarios are spatially local: a request only
//! ever considers the handful of servers covering its user, so between
//! mobility boundaries the regions share nothing mutable and run freely
//! on a pool of worker threads. At every mobility boundary the coordinator merges
//! deterministically: it assembles the global position vector from the
//! owner regions' kinematics, updates the snapshot **once**, recounts
//! handovers on the refreshed users, and migrates ownership of users
//! that crossed a strip border (ascending user id; the user's request
//! generation is bumped so the old chain's pending request becomes a
//! tombstone, and the new owner copies the kinematics and starts a
//! fresh chain). Because every merge is single-threaded and ordered,
//! **the trace is a pure function of `(scenario, policy, config, R)` —
//! byte-identical across any worker thread count**.
//!
//! Sharding *is* a model change for `R > 1`: a request is served only
//! by eligible servers of its owner's strip, and each strip plans its
//! own re-placements. That is the regional-autonomy semantics real edge
//! deployments have (a Shenzhen cell does not fail over to Guangzhou),
//! and it is what makes the strips independent enough to parallelise.
//!
//! Durable runs journal per region (`journal_<id>.tcj`) and write one
//! checkpoint file that stores each fact once: the run-wide facts
//! (workload, positions, primaries, generations, staged
//! reconciliations), one state per server taken from its owner region,
//! and per region only what the region owns (RNG, events, metrics,
//! controller, kinematics). There is one restore path: the region count
//! is read from the checkpoint, strip membership is re-derived from the
//! static topology and user ownership from the checkpointed positions.
//!
//! [`ServeEngine`]: crate::ServeEngine

use std::borrow::Cow;

use trimcaching_scenario::{Placement, Scenario, UserId};
use trimcaching_wireless::geometry::Point;

use crate::engine::{
    member_slot, primary_server_for, primary_servers, DriveStop, Home, Region, RunState,
    ServeConfig, ServeReport, Shared,
};
use crate::error::RuntimeError;
use crate::event::{Event, EventKind};
use crate::fanout::par_map;
use crate::faults::FaultSpec;
use crate::persist::checkpoint::CheckpointSaver;
use crate::persist::{Checkpoint, PersistConfig, PersistError};
use crate::policy::EvictionPolicy;
use crate::workload::Workload;

/// The static strip partition of a scenario: the geometry deciding which
/// strip a coordinate — and therefore a server or a user — falls into.
#[derive(Debug, Clone)]
struct Partition {
    min_x: f64,
    strip_w: f64,
    num_shards: usize,
}

impl Partition {
    /// Splits the server x-coordinate bounding box into `num_shards`
    /// equal strips. Degenerate spans (one server, or all servers on
    /// one vertical line) collapse into strip 0.
    fn over(scenario: &Scenario, num_shards: usize) -> Self {
        let xs = scenario.servers().iter().map(|s| s.position().x);
        let min_x = xs.clone().fold(f64::INFINITY, f64::min);
        let max_x = xs.fold(f64::NEG_INFINITY, f64::max);
        let span = max_x - min_x;
        let strip_w = if span.is_finite() && span > 0.0 {
            span / num_shards as f64
        } else {
            0.0
        };
        Self {
            min_x,
            strip_w,
            num_shards,
        }
    }

    /// The shard whose strip contains x-coordinate `x` (positions
    /// outside the server bounding box clamp to the border strips).
    fn strip_of(&self, x: f64) -> usize {
        if self.strip_w <= 0.0 {
            return 0;
        }
        let strip = ((x - self.min_x) / self.strip_w).floor();
        if strip.is_nan() {
            return 0;
        }
        (strip as i64).clamp(0, self.num_shards as i64 - 1) as usize
    }

    /// The owner shard of every user, from their current positions.
    fn owners_of(&self, positions: &[Point]) -> Vec<usize> {
        positions.iter().map(|p| self.strip_of(p.x)).collect()
    }
}

/// One region: its engine plus the run state the coordinator drives it
/// through (`None` until the run begins).
struct ShardRun<'a> {
    engine: Region<'a>,
    state: Option<RunState>,
}

/// A serving run of `R` deterministic regions over one shared snapshot —
/// see the module docs for the model and the determinism contract.
pub struct ShardedServeEngine<'a> {
    scenario: &'a Scenario,
    policy: &'a dyn EvictionPolicy,
    config: ServeConfig,
    threads: usize,
    partition: Partition,
    /// The workload, snapshot, primaries and ownership map every region
    /// reads.
    shared: Shared<'a>,
    shards: Vec<ShardRun<'a>>,
    /// Simulated time of the next checkpoint boundary (`f64::INFINITY`
    /// for in-memory runs).
    next_checkpoint_s: f64,
    saver: CheckpointSaver,
}

impl<'a> ShardedServeEngine<'a> {
    /// Prepares a run over `scenario` with `num_shards` strips.
    /// `num_shards == 1` is the classic engine, [`ServeEngine::new`].
    ///
    /// [`ServeEngine::new`]: crate::ServeEngine::new
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] for zero shards or an
    /// invalid configuration, and propagates scenario errors.
    pub fn new(
        scenario: &'a Scenario,
        policy: &'a dyn EvictionPolicy,
        config: ServeConfig,
        num_shards: usize,
    ) -> Result<Self, RuntimeError> {
        Self::build(scenario, policy, config, num_shards, None)
    }

    /// The one constructor, behind [`ShardedServeEngine::new`] and
    /// restore: `restored` is the run's workload and primary table,
    /// `None` for a fresh run, which derives the stationary workload of
    /// the scenario's demand and the primaries of its snapshot. Restore
    /// passes the checkpointed ones, so a resume derives neither.
    fn build(
        scenario: &'a Scenario,
        policy: &'a dyn EvictionPolicy,
        config: ServeConfig,
        num_shards: usize,
        restored: Option<(Workload, Vec<Option<usize>>)>,
    ) -> Result<Self, RuntimeError> {
        if num_shards == 0 {
            return Err(RuntimeError::InvalidConfig {
                reason: "a sharded run needs at least one shard".into(),
            });
        }
        config.validate()?;
        if let Some(faults) = &config.faults {
            faults.validate_servers(scenario.num_servers())?;
        }
        let partition = Partition::over(scenario, num_shards);
        let positions: Vec<Point> = scenario.users().iter().map(|u| u.position()).collect();
        // Each strip's servers take its slots in ascending server id.
        let mut members = vec![Vec::new(); num_shards];
        let mut home = Vec::with_capacity(scenario.num_servers());
        for (m, server) in scenario.servers().iter().enumerate() {
            let region = partition.strip_of(server.position().x);
            let slot = members[region].len();
            home.push(Home { region, slot });
            members[region].push(m);
        }
        let (workload, primary) = match restored {
            Some(restored) => restored,
            None => (
                Workload::from_demand(scenario.demand(), config.request_rate_hz)?,
                primary_servers(scenario)?,
            ),
        };
        let shared = Shared {
            workload,
            snapshot: Cow::Borrowed(scenario),
            primary,
            owner: partition.owners_of(&positions),
            generation: vec![0; scenario.num_users()],
            scheduled: Vec::new(),
            home,
        };
        let shards = members
            .into_iter()
            .enumerate()
            .map(|(s, servers)| {
                let region_config = config.clone().with_seed(config.seed.wrapping_add(s as u64));
                Region::new(scenario, policy, region_config, s, servers).map(|engine| ShardRun {
                    engine,
                    state: None,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let next_checkpoint_s = if config.persist.is_some() {
            0.0
        } else {
            f64::INFINITY
        };
        Ok(Self {
            scenario,
            policy,
            config,
            threads: 0,
            partition,
            shared,
            shards,
            next_checkpoint_s,
            saver: CheckpointSaver::default(),
        })
    }

    /// Sets the worker-thread pool size (`0`, the default, uses one
    /// worker per available CPU). The pool size changes wall-clock
    /// time only — the merged trace is byte-identical for any value.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Warm-starts every region's member caches from an offline
    /// placement: every `x_{m,i} = 1` entry is preloaded by the region
    /// owning server `m`, skipping models that no longer fit.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] for a placement whose
    /// dimensions disagree with the scenario.
    pub fn warm_start(&mut self, placement: &Placement) -> Result<(), RuntimeError> {
        self.check_dimensions("placement", placement)?;
        for shard in &mut self.shards {
            shard.engine.warm_start(placement)?;
        }
        Ok(())
    }

    /// Replaces the run's request workload: each region samples its
    /// *own* users from it, so piecewise shifts, flash crowds and tides
    /// apply city-wide.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] for a workload whose
    /// user or model count differs from the scenario's.
    pub fn set_workload(&mut self, workload: Workload) -> Result<(), RuntimeError> {
        let s = self.scenario;
        if (workload.num_users(), workload.num_models()) != (s.num_users(), s.num_models()) {
            return Err(RuntimeError::InvalidConfig {
                reason: format!(
                    "workload has {} users and {} models but the scenario has {} and {}",
                    workload.num_users(),
                    workload.num_models(),
                    s.num_users(),
                    s.num_models()
                ),
            });
        }
        self.shared.workload = workload;
        Ok(())
    }

    /// Schedules an oracle reconciliation towards `target` at `at_s`
    /// (see [`ServeEngine::schedule_reconcile`]); each region stages the
    /// rows of its member servers.
    ///
    /// [`ServeEngine::schedule_reconcile`]: crate::ServeEngine::schedule_reconcile
    pub(crate) fn schedule_reconcile(
        &mut self,
        at_s: f64,
        target: Placement,
    ) -> Result<(), RuntimeError> {
        if !(at_s.is_finite() && at_s.is_sign_positive()) {
            return Err(RuntimeError::InvalidConfig {
                reason: format!(
                    "reconcile time must be non-negative (not -0.0) and finite, got {at_s}"
                ),
            });
        }
        self.check_dimensions("target", &target)?;
        self.shared.scheduled.push((at_s, target));
        Ok(())
    }

    /// Checks `placement`'s dimensions (named `what` in errors): regions
    /// read only their own rows and would drop a surplus row silently.
    fn check_dimensions(&self, what: &str, placement: &Placement) -> Result<(), RuntimeError> {
        let s = self.scenario;
        if placement.num_servers() != s.num_servers() || placement.num_models() != s.num_models() {
            return Err(RuntimeError::InvalidConfig {
                reason: format!(
                    "{what} is {}x{} but the scenario is {}x{}",
                    placement.num_servers(),
                    placement.num_models(),
                    s.num_servers(),
                    s.num_models()
                ),
            });
        }
        Ok(())
    }

    /// Resumes an interrupted durable run from the checkpoint and the
    /// per-region journals in `persist.dir`. The region count is read
    /// from the checkpoint; strip membership is re-derived from the
    /// (static) topology and user ownership from the checkpointed
    /// positions — ownership at a boundary is always exactly "the strip
    /// the user stands in".
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, corrupt files, or a policy/seed mismatch
    /// between `policy`, the checkpoint and any region journal.
    pub fn resume(
        scenario: &'a Scenario,
        policy: &'a dyn EvictionPolicy,
        persist: PersistConfig,
    ) -> Result<Self, RuntimeError> {
        persist.validate()?;
        let cp = Checkpoint::load(&persist.checkpoint_path())?;
        Self::restore(scenario, policy, &cp, Some(persist))
    }

    /// The one restore path: a fresh run over `scenario` with the
    /// checkpoint's region count, the shared state and snapshot moved to
    /// the checkpointed run section, every server restored by its owner
    /// region and every region overwritten with its own section. With
    /// `persist` the run resumes its journals and checkpoints; without
    /// it the run is an in-memory fork.
    pub(crate) fn restore(
        scenario: &'a Scenario,
        policy: &'a dyn EvictionPolicy,
        cp: &Checkpoint,
        persist: Option<PersistConfig>,
    ) -> Result<Self, RuntimeError> {
        let (num_users, num_servers) = (scenario.num_users(), scenario.num_servers());
        let per_user = [
            cp.positions.len(),
            cp.primary.len(),
            cp.generation.len(),
            cp.workload.num_users(),
        ];
        if per_user.iter().any(|&len| len != num_users) || cp.servers.len() != num_servers {
            return Err(PersistError::Mismatch {
                reason: format!(
                    "checkpoint captured {} users and {} servers but the scenario has \
                     {num_users} and {num_servers}",
                    cp.positions.len(),
                    cp.servers.len()
                ),
            }
            .into());
        }
        if cp.workload.num_models() != scenario.num_models() {
            return Err(PersistError::Mismatch {
                reason: format!(
                    "checkpointed workload draws from {} models but the library has {}",
                    cp.workload.num_models(),
                    scenario.num_models()
                ),
            }
            .into());
        }
        let mut config = cp.config.clone();
        config.persist = persist.clone();
        let restored = Some((cp.workload.clone(), cp.primary.clone()));
        let mut engine = Self::build(scenario, policy, config, cp.num_shards(), restored)?;
        check_events(cp, scenario.num_models(), &engine.shared.home)?;
        engine.shared.owner = engine.partition.owners_of(&cp.positions);
        engine.shared.generation = cp.generation.clone();
        // A dispatch never checks the invariant the merges keep, so a
        // broken chain would run: one user served twice, another never.
        let regions = cp.regions.iter().map(|r| r.events.iter().copied());
        if let Some(breach) = request_chain_breach(regions, &engine.shared.owner, &cp.generation) {
            return Err(PersistError::Corrupt {
                context: format!("checkpoint: {breach}"),
            }
            .into());
        }
        engine.shared.scheduled = cp.scheduled.clone();
        for (shard, region) in engine.shards.iter_mut().zip(&cp.regions) {
            let state = shard
                .engine
                .restore(&cp.policy, &cp.servers, region, persist.as_ref())?;
            shard.state = Some(state);
        }
        if cp.config.mobility_slot_s > 0.0 {
            // One-shot position update — bit-identical to the
            // slot-by-slot evolution that produced the checkpoint
            // (pinned by `in_place_slots_match_full_rebuild_serving`),
            // and like
            // a merge it updates the radio state only. It runs after the
            // regions restore so the snapshot copy is not live next to
            // the journals they read back.
            engine.shared.move_users(&cp.positions)?;
        }
        // The primary table is derived state: a merge recounts only the
        // users it refreshes, so a wrong entry would never be mended.
        if engine.shared.primary != primary_servers(&engine.shared.snapshot)? {
            return Err(PersistError::Corrupt {
                context: "checkpointed primary servers disagree with the restored snapshot".into(),
            }
            .into());
        }
        if let Some(p) = &persist {
            engine.next_checkpoint_s = cp.time_s + p.checkpoint_every_s;
        }
        Ok(engine)
    }

    /// Runs all regions to the configured horizon and merges the
    /// per-region results: counters sum, histograms add, window traces
    /// merge point-wise, and each server's final cache comes from its
    /// owner region. For one region the merged metrics *are* that
    /// region's metrics.
    ///
    /// # Errors
    ///
    /// Propagates the first error any region produced.
    pub fn run(mut self) -> Result<ServeReport, RuntimeError> {
        let horizon = self.config.duration_s;
        self.run_to(horizon)?;
        self.saver.wait()?;
        let mut metrics = None;
        let mut member_caches = Vec::with_capacity(self.shards.len());
        for shard in self.shards {
            let (region_metrics, caches) = shard.engine.finish(horizon)?;
            match &mut metrics {
                None => metrics = Some(region_metrics),
                Some(merged) => merged.merge_from(&region_metrics),
            }
            member_caches.push(caches);
        }
        let final_caches = self
            .shared
            .home
            .iter()
            .map(|home| std::mem::take(&mut member_caches[home.region][home.slot]))
            .collect();
        Ok(ServeReport {
            policy: self.policy.name().to_string(),
            seed: self.config.seed,
            granularity: self.config.granularity,
            metrics: metrics.ok_or_else(|| RuntimeError::Internal {
                reason: "a run without regions finished".into(),
            })?,
            final_caches,
        })
    }

    /// Runs the regions up to simulated time `stop_s` and drops the
    /// engine — the durable-run analogue of the process being killed at
    /// `stop_s`. Every due checkpoint is on disk and every region
    /// journal is flushed; continue with [`ShardedServeEngine::resume`].
    ///
    /// # Errors
    ///
    /// Rejects a non-finite or negative stop time and propagates the
    /// same errors as [`ShardedServeEngine::run`].
    pub fn run_until(mut self, stop_s: f64) -> Result<(), RuntimeError> {
        if !(stop_s.is_finite() && stop_s >= 0.0) {
            return Err(RuntimeError::InvalidConfig {
                reason: format!("stop time must be non-negative and finite, got {stop_s}"),
            });
        }
        let stop_s = stop_s.min(self.config.duration_s);
        self.run_to(stop_s)?;
        for shard in &mut self.shards {
            shard.engine.sync_journal()?;
        }
        Ok(self.saver.wait()?)
    }

    /// Drives every region to `horizon` through checkpoint-bounded
    /// windows: within a window the regions run in parallel and merge at
    /// every mobility boundary; at each due checkpoint boundary (boundary
    /// `0.0` included) all regions are captured into one checkpoint file.
    /// A boundary `T` is written once no pending event fires at or before
    /// `T` — events *at* the boundary are simulated state of the
    /// boundary, so they process first.
    fn run_to(&mut self, horizon: f64) -> Result<(), RuntimeError> {
        for shard in &mut self.shards {
            if shard.state.is_none() {
                shard.state = Some(shard.engine.begin(&self.shared)?);
            }
        }
        loop {
            let window_end = horizon.min(self.next_checkpoint_s);
            self.drive_window(window_end)?;
            let Some(pc) = self.config.persist.clone() else {
                return Ok(());
            };
            let due = self.next_checkpoint_s;
            if due > horizon {
                return Ok(());
            }
            let checkpoint = self.capture(due)?;
            self.saver
                .save(pc.checkpoint_path(), checkpoint, pc.fsync)?;
            self.next_checkpoint_s = due + pc.checkpoint_every_s;
            if window_end >= horizon {
                return Ok(());
            }
        }
    }

    /// Captures the run at boundary `time_s`: the shared state once,
    /// each server from its owner region, and each region's own state
    /// (flushing its journal).
    fn capture(&mut self, time_s: f64) -> Result<Checkpoint, RuntimeError> {
        let mut regions = Vec::with_capacity(self.shards.len());
        for shard in &mut self.shards {
            let state = shard.state.as_ref().ok_or_else(no_run_state)?;
            regions.push(shard.engine.capture(state)?);
        }
        let servers = self.shared.home.iter();
        let mut config = self.config.clone();
        config.persist = None;
        Ok(Checkpoint {
            time_s,
            policy: self.policy.name().to_string(),
            config,
            workload: self.shared.workload.clone(),
            positions: self
                .shared
                .snapshot
                .users()
                .iter()
                .map(|u| u.position())
                .collect(),
            primary: self.shared.primary.clone(),
            generation: self.shared.generation.clone(),
            scheduled: self.shared.scheduled.clone(),
            servers: servers
                .map(|home| self.shards[home.region].engine.server_state(home.slot))
                .collect(),
            regions,
        })
    }

    /// Drives every region to `window_end`, running the deterministic
    /// merge at each mobility boundary on the way.
    fn drive_window(&mut self, window_end: f64) -> Result<(), RuntimeError> {
        loop {
            let outcomes = self.drive_all(window_end)?;
            let mut boundary: Option<f64> = None;
            let mut at_horizon = false;
            for outcome in &outcomes {
                match outcome {
                    DriveStop::Horizon => at_horizon = true,
                    DriveStop::MobilityBoundary(t) => match boundary {
                        None => boundary = Some(*t),
                        Some(prev) if prev == *t => {}
                        Some(prev) => {
                            return Err(RuntimeError::Internal {
                                reason: format!(
                                    "regions disagree on the mobility boundary: {prev} vs {t}"
                                ),
                            });
                        }
                    },
                }
            }
            let Some(tb) = boundary else {
                return Ok(());
            };
            if at_horizon {
                return Err(RuntimeError::Internal {
                    reason: format!(
                        "some regions reached the window end while others stopped at the \
                         mobility boundary {tb} — the slot grids diverged"
                    ),
                });
            }
            self.merge_at(tb)?;
            if cfg!(debug_assertions) {
                self.check_request_chains()?;
                self.check_primaries()?;
            }
        }
    }

    /// One round of parallel region driving on the worker pool. The
    /// outcomes come back in region-id order whatever the thread
    /// scheduling, so everything downstream is deterministic.
    fn drive_all(&mut self, stop_s: f64) -> Result<Vec<DriveStop>, RuntimeError> {
        let shared = &self.shared;
        par_map(&mut self.shards, self.threads, |_, shard| {
            let ShardRun { engine, state } = shard;
            let state = state.as_mut().ok_or_else(no_run_state)?;
            engine.drive(state, stop_s, shared)
        })
    }

    /// The deterministic merge at mobility boundary `tb`, entirely
    /// single-threaded and ordered by region id then user id:
    ///
    /// 1. assemble the global position vector from the owner regions'
    ///    kinematics (each region steps *all* users for RNG parity, but
    ///    only owned rows are authoritative);
    /// 2. move the one shared snapshot's users and recompute its radio
    ///    state — coverage, allocation and rates, whole, through the
    ///    build's passes and in the snapshot's own buffers, so it equals
    ///    a full rebuild. The stored eligibility is left out of date as a
    ///    whole: a request scores its class from the radio state, and a
    ///    re-plan derives a fresh indicator (see [`Shared`]). Then
    ///    recount handovers over the refreshed users (moved users and
    ///    the users of a server whose share changed), each on its
    ///    owner's counters;
    /// 3. migrate ownership of users that crossed a strip border: copy
    ///    the kinematic row to the new owner, flip the ownership map,
    ///    bump the user's request generation and let the new owner start
    ///    a fresh chain of that generation (the old chain's pending
    ///    request dies as a tombstone, for good).
    fn merge_at(&mut self, tb: f64) -> Result<(), RuntimeError> {
        let owner = &self.shared.owner;
        let mut global = vec![Point::new(0.0, 0.0); owner.len()];
        for (s, shard) in self.shards.iter().enumerate() {
            let users = shard_mobility(shard)?.users();
            for (k, &o) in owner.iter().enumerate() {
                if o == s {
                    global[k] = users[k].position;
                }
            }
        }

        let delta = self.shared.move_users(&global)?;
        let (snapshot, owner) = (&*self.shared.snapshot, &self.shared.owner);
        for shard in &mut self.shards {
            shard.engine.metrics.snapshot_rebuilds += 1;
        }
        // Primary servers are a pure function of a user's covering set
        // and rates, both unchanged outside the refreshed set — count
        // handovers over the delta's users only, each from its own rate
        // row.
        for &k in delta.refreshed_users() {
            let fresh = primary_server_for(snapshot, k)?;
            let metrics = &mut self.shards[owner[k]].engine.metrics;
            metrics.users_refreshed += 1;
            if self.shared.primary[k] != fresh {
                metrics.handovers += 1;
            }
            self.shared.primary[k] = fresh;
        }

        // Migration order is part of the determinism contract: strictly
        // ascending user id.
        let owner = &mut self.shared.owner;
        for (k, position) in global.iter().enumerate() {
            let from = owner[k];
            let to = self.partition.strip_of(position.x);
            if to == from {
                continue;
            }
            let row = shard_mobility(&self.shards[from])?.users()[k];
            let state = self.shards[to].state.as_mut().ok_or_else(no_run_state)?;
            state
                .mobility
                .as_mut()
                .ok_or_else(no_run_state)?
                .set_user(k, row)?;
            owner[k] = to;
            let generation = &mut self.shared.generation[k];
            *generation = generation.wrapping_add(1);
            // The new owner starts a fresh chain of the new generation.
            let gap = self.shared.workload.next_interarrival_s(&mut state.rng);
            let (user, generation) = (UserId(k), *generation);
            state
                .queue
                .push(tb + gap, EventKind::Request { user, generation });
        }
        Ok(())
    }

    /// The merge invariant, checked after every merge in debug builds:
    /// [`request_chain_breach`] over every region's queue.
    fn check_request_chains(&self) -> Result<(), RuntimeError> {
        let queues = self
            .shards
            .iter()
            .map(|shard| Ok(&shard.state.as_ref().ok_or_else(no_run_state)?.queue))
            .collect::<Result<Vec<_>, RuntimeError>>()?;
        let regions = queues.iter().map(|queue| queue.iter());
        match request_chain_breach(regions, &self.shared.owner, &self.shared.generation) {
            Some(reason) => Err(RuntimeError::Internal { reason }),
            None => Ok(()),
        }
    }

    /// The merge's other invariant, checked after every merge in debug
    /// builds: the primary table the merge recounted from the refreshed
    /// users equals the table [`primary_servers`] derives for every
    /// user of the snapshot.
    fn check_primaries(&self) -> Result<(), RuntimeError> {
        let eager = primary_servers(&self.shared.snapshot)?;
        match (0..eager.len()).find(|&k| self.shared.primary[k] != eager[k]) {
            Some(k) => Err(RuntimeError::Internal {
                reason: format!(
                    "user {k}'s primary server is {:?} after the merge but {:?} under the \
                     snapshot",
                    self.shared.primary[k], eager[k]
                ),
            }),
            None => Ok(()),
        }
    }
}

/// The one-live-chain invariant over the pending events of every region,
/// in region order: every user has exactly one live request chain — one
/// pending `Request` event of the user's current generation — and it
/// sits in the queue of the user's owner region. Names the first breach.
fn request_chain_breach(
    regions: impl Iterator<Item = impl Iterator<Item = Event>>,
    owner: &[usize],
    generations: &[u32],
) -> Option<String> {
    let mut live = vec![0u32; owner.len()];
    for (s, events) in regions.enumerate() {
        for event in events {
            let EventKind::Request { user, generation } = event.kind else {
                continue;
            };
            let k = user.index();
            if generation != generations[k] {
                continue;
            }
            if owner[k] != s {
                let o = owner[k];
                return Some(format!(
                    "user {k}'s live request chain is in region {s}, not {o}"
                ));
            }
            live[k] += 1;
        }
    }
    let k = live.iter().position(|&chains| chains != 1)?;
    let n = live[k];
    Some(format!("user {k} has {n} live request chains, not one"))
}

/// Checks a checkpoint's pending events against what the restored run
/// holds and against the queue's pop-order contract. Indices: users and
/// servers against the checkpoint's own per-user and per-server state,
/// models against `num_models`, and scheduled reconciliations and fault
/// transitions against their lists; the server of a transfer, a retry or
/// a fault transition must also be one the region simulates (`home`).
/// Order: every time finite, non-negative, not `-0.0` and not before the
/// checkpoint's own time, and every sequence number unique within its
/// region and below the region's next one. A CRC-valid checkpoint can
/// still carry an index the run would first dereference at dispatch, or
/// a time or sequence number that would silently reorder the run.
fn check_events(cp: &Checkpoint, num_models: usize, home: &[Home]) -> Result<(), PersistError> {
    let (users, servers, scheduled) = (cp.positions.len(), cp.servers.len(), cp.scheduled.len());
    let timeline: &[FaultSpec] = cp.config.faults.as_ref().map_or(&[], |f| &f.timeline);
    let faults = timeline.len();
    for (region, state) in cp.regions.iter().enumerate() {
        let corrupt = |what: String| PersistError::Corrupt {
            context: format!("checkpoint: region {region} holds {what}"),
        };
        for event in &state.events {
            let (in_range, server) = match event.kind {
                EventKind::Request { user, .. } => (user.index() < users, None),
                EventKind::TransferComplete { server, model }
                | EventKind::RetryFill { server, model, .. } => {
                    (server < servers && model.index() < num_models, Some(server))
                }
                EventKind::ScheduledReconcile { index } => (index < scheduled, None),
                EventKind::FaultTransition { index } => (
                    index < faults,
                    timeline.get(index).map(|spec| spec.kind.server()),
                ),
                EventKind::MobilitySlot | EventKind::ControlTick => (true, None),
            };
            let t = event.time_s;
            let in_order = t.is_finite() && t.is_sign_positive() && t >= cp.time_s;
            if !(in_range && in_order && event.seq < state.next_seq) {
                return Err(corrupt(format!(
                    "{:?} at {t} s with sequence number {}: the run has {users} users, \
                     {servers} servers, {num_models} models, {scheduled} scheduled \
                     reconciliations and {faults} fault transitions, the checkpoint is at \
                     {} s and the next sequence number is {}",
                    event.kind, event.seq, cp.time_s, state.next_seq
                )));
            }
            if let Some(m) = server.filter(|&m| member_slot(home, region, m).is_none()) {
                let kind = event.kind;
                return Err(corrupt(format!(
                    "{kind:?} for server {m}, which it does not own"
                )));
            }
        }
        let mut seqs: Vec<u64> = state.events.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        if let Some(pair) = seqs.windows(2).find(|pair| pair[0] == pair[1]) {
            return Err(corrupt(format!("sequence number {} twice", pair[0])));
        }
    }
    Ok(())
}

/// The kinematics of one region (present whenever a mobility boundary
/// fires).
fn shard_mobility<'s>(
    shard: &'s ShardRun<'_>,
) -> Result<&'s trimcaching_scenario::mobility::MobilityModel, RuntimeError> {
    let state = shard.state.as_ref().ok_or_else(no_run_state)?;
    state
        .mobility
        .as_ref()
        .ok_or_else(|| RuntimeError::Internal {
            reason: "a mobility boundary fired but a region has no mobility model".into(),
        })
}

/// The internal error for a region whose run state went missing — only
/// reachable through a coordinator bug, never through user input.
fn no_run_state() -> RuntimeError {
    RuntimeError::Internal {
        reason: "a region has no run state".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::checkpoint::RegionState;
    use crate::persist::tests::fnv1a;
    use crate::policy::Lru;
    use crate::workload::PopularityShift;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::path::{Path, PathBuf};
    use trimcaching_modellib::builders::{FoundationSpec, LoraLibraryBuilder, SpecialCaseBuilder};
    use trimcaching_modellib::ModelId;
    use trimcaching_scenario::prelude::*;
    use trimcaching_scenario::LatencyEvaluator;
    use trimcaching_wireless::geometry::DeploymentArea;
    use trimcaching_wireless::params::RadioParams;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tc-shard-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Four servers spread along x so 2- and 4-way strip partitions put
    /// at least one server in every shard.
    fn scenario(num_users: usize) -> Scenario {
        let library = SpecialCaseBuilder::paper_setup()
            .models_per_backbone(3)
            .build(5);
        let mut rng = StdRng::seed_from_u64(77);
        let area = DeploymentArea::paper_default();
        let positions: Vec<Point> = (0..num_users)
            .map(|_| area.sample_uniform(&mut rng))
            .collect();
        let demand = DemandConfig::paper_defaults()
            .generate(num_users, library.num_models(), &mut rng)
            .unwrap();
        let servers = [120.0, 380.0, 620.0, 880.0]
            .iter()
            .enumerate()
            .map(|(m, &x)| {
                EdgeServer::new(ServerId(m), Point::new(x, 500.0), gigabytes(0.5)).unwrap()
            })
            .collect();
        Scenario::builder()
            .library(library)
            .servers(servers)
            .users_at(&positions)
            .demand(demand)
            .build()
            .unwrap()
    }

    /// Mobility on (so merges and migrations fire) and durable (so the
    /// byte-identity claims are checkable on the journal files).
    fn config(dir: &Path) -> ServeConfig {
        ServeConfig::smoke()
            .with_seed(11)
            .with_mobility_slot_s(5.0)
            .with_persist(PersistConfig::new(dir).with_checkpoint_every_s(20.0))
    }

    fn journal_bytes(path: PathBuf) -> Vec<u8> {
        std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
    }

    fn run_sharded(
        s: &Scenario,
        config: &ServeConfig,
        num_shards: usize,
        threads: usize,
    ) -> Result<ServeReport, RuntimeError> {
        ShardedServeEngine::new(s, &Lru, config.clone(), num_shards)?
            .with_threads(threads)
            .run()
    }

    #[test]
    fn worker_thread_count_never_changes_the_trace() {
        let s = scenario(16);
        let serial_dir = temp_dir("t1");
        let pooled_dir = temp_dir("t4");
        let serial = run_sharded(&s, &config(&serial_dir), 4, 1).unwrap();
        let pooled = run_sharded(&s, &config(&pooled_dir), 4, 4).unwrap();
        assert_eq!(
            serial, pooled,
            "thread count must not perturb the merged trace"
        );
        assert!(serial.metrics.requests > 0);
        for shard in 0..4 {
            assert_eq!(
                journal_bytes(PersistConfig::new(&serial_dir).journal_shard_path(shard)),
                journal_bytes(PersistConfig::new(&pooled_dir).journal_shard_path(shard)),
                "shard {shard} journal must be byte-identical at 1 and 4 workers"
            );
        }
    }

    #[test]
    fn sharded_runs_are_deterministic_and_conserve_requests() {
        let s = scenario(16);
        let a_dir = temp_dir("det-a");
        let b_dir = temp_dir("det-b");
        let a = run_sharded(&s, &config(&a_dir), 2, 2).unwrap();
        let b = run_sharded(&s, &config(&b_dir), 2, 2).unwrap();
        assert_eq!(a, b, "same-seed sharded runs must be byte-identical");
        let m = &a.metrics;
        assert_eq!(m.requests, m.hits + m.misses_served + m.rejected);
        assert!((0.0..=1.0).contains(&m.hit_ratio()));
        assert_eq!(
            a.seed, 11,
            "the merged report carries the run seed, not a shard seed"
        );
        // Every cached set respects the shared-storage capacity.
        for (srv, cached) in a.final_caches.iter().enumerate() {
            let used = s.library().union_size_bytes(cached.iter().copied());
            assert!(used <= s.capacity_bytes(ServerId(srv)).unwrap());
        }
    }

    #[test]
    fn killed_sharded_run_resumes_byte_identically() {
        let s = scenario(14);
        let reference_dir = temp_dir("ref");
        let killed_dir = temp_dir("killed");
        let reference = run_sharded(&s, &config(&reference_dir), 2, 2).unwrap();

        // Kill mid-run (past the t=20 checkpoint, mid-window), then
        // resume from disk and run to the horizon.
        let engine = ShardedServeEngine::new(&s, &Lru, config(&killed_dir), 2)
            .unwrap()
            .with_threads(2);
        engine.run_until(37.0).unwrap();
        let persist = PersistConfig::new(&killed_dir).with_checkpoint_every_s(20.0);
        let resumed = ShardedServeEngine::resume(&s, &Lru, persist.clone())
            .unwrap()
            .with_threads(2)
            .run()
            .unwrap();
        assert_eq!(
            reference, resumed,
            "resume must reproduce the uninterrupted run"
        );
        for shard in 0..2 {
            assert_eq!(
                journal_bytes(PersistConfig::new(&reference_dir).journal_shard_path(shard)),
                journal_bytes(persist.journal_shard_path(shard)),
                "shard {shard} journal must be byte-identical after kill/resume"
            );
        }
    }

    /// FNV-1a of every journal (file-name order), of the last
    /// checkpoint and of the report's `Debug` text.
    type Golden = (Vec<u64>, u64, u64);

    /// The [`Golden`] hashes of the run in `dir` that reported `report`.
    fn golden_hashes(dir: &Path, report: &ServeReport) -> Golden {
        let mut journals: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().is_some_and(|x| x == "tcj"))
            .collect();
        journals.sort();
        let journals = journals
            .into_iter()
            .map(|p| fnv1a(&journal_bytes(p)))
            .collect();
        let checkpoint = journal_bytes(PersistConfig::new(dir).checkpoint_path());
        (
            journals,
            fnv1a(&checkpoint),
            fnv1a(format!("{report:?}").as_bytes()),
        )
    }

    #[test]
    fn golden_bytes_are_pinned() {
        use crate::control::ControlConfig;
        use crate::engine::ServeEngine;
        use crate::faults::{FaultConfig, FaultKind, FaultSpec};

        let s = scenario(40);
        let mut live = Vec::new();

        // R = 1 through the classic API, mobile, with control and faults.
        let dir = temp_dir("golden-classic");
        let faults = FaultConfig::new(vec![
            FaultSpec {
                at_s: 12.0,
                kind: FaultKind::ServerDown { server: 1 },
            },
            FaultSpec {
                at_s: 33.0,
                kind: FaultKind::ServerUp { server: 1 },
            },
        ]);
        let classic = config(&dir)
            .with_control(ControlConfig::paper_defaults().with_tick_s(10.0))
            .with_faults(faults);
        let report = ServeEngine::new(&s, &Lru, classic).unwrap().run().unwrap();
        live.push(("r1-mobile-control-faults", golden_hashes(&dir, &report)));

        for (key, mobile, shards) in [
            ("r2-static", false, 2),
            ("r4-static", false, 4),
            ("r2-mobile", true, 2),
            ("r4-mobile", true, 4),
        ] {
            let dir = temp_dir(&format!("golden-{key}"));
            let mut run = config(&dir);
            if !mobile {
                run.mobility_slot_s = 0.0;
            }
            let report = ShardedServeEngine::new(&s, &Lru, run, shards)
                .unwrap()
                .with_threads(2)
                .run()
                .unwrap();
            live.push((key, golden_hashes(&dir, &report)));
        }

        // A shifting popularity, so the pinned checkpoints hold a
        // workload of several phases.
        let dir = temp_dir("golden-r2-shift");
        let run = config(&dir);
        let shift = PopularityShift::new(15.0, 4, 3)
            .workload(s.demand(), run.request_rate_hz)
            .unwrap();
        let mut engine = ShardedServeEngine::new(&s, &Lru, run, 2)
            .unwrap()
            .with_threads(2);
        engine.set_workload(shift).unwrap();
        let report = engine.run().unwrap();
        live.push(("r2-mobile-shift", golden_hashes(&dir, &report)));

        let pinned: Vec<(&str, Golden)> = vec![
            (
                "r1-mobile-control-faults",
                (
                    vec![0x7a4e_402f_b0df_8a4e],
                    0xecca_4c58_c90f_1c6e,
                    0xda29_f107_84d5_1b1f,
                ),
            ),
            (
                "r2-static",
                (
                    vec![0x31ba_93fc_9661_1096, 0xa44e_3807_d204_4341],
                    0x3c7e_88a2_0230_4239,
                    0x18ca_3bd7_4a64_79c6,
                ),
            ),
            (
                "r4-static",
                (
                    vec![
                        0x99af_f891_4e0e_e0b0,
                        0x0a67_9a39_1c1b_4f61,
                        0xf977_3e52_5007_1f2f,
                        0x83bd_59ae_5808_0149,
                    ],
                    0x475b_10f5_99a8_8d55,
                    0x5eff_8abb_1479_f2b2,
                ),
            ),
            (
                "r2-mobile",
                (
                    vec![0x5ab7_9cc8_dce5_5c74, 0xc205_6991_7f76_1f38],
                    0x700d_8837_f2a0_d0a0,
                    0x0859_b7fc_7042_268d,
                ),
            ),
            (
                "r4-mobile",
                (
                    vec![
                        0x1433_ec04_5513_b082,
                        0x26a9_fc1b_6e8d_c70f,
                        0xd0ca_9c75_bf73_eae7,
                        0x1e56_27c1_5700_fcc6,
                    ],
                    0x2b87_db4b_2f0d_88a2,
                    0x7f21_5a9f_7c8a_c4fb,
                ),
            ),
            (
                "r2-mobile-shift",
                (
                    vec![0x6e34_37ce_812b_9115, 0xaf79_6767_b067_4ec3],
                    0x184c_187b_d48d_497c,
                    0xe0af_76a7_2238_9836,
                ),
            ),
        ];
        assert_eq!(
            live, pinned,
            "journal, checkpoint or report bytes moved; the live hashes are printed on the left"
        );
    }

    /// The benchmark's mobile-durable deployment with `users` users: a
    /// LoRA market of three foundations with eight adapters each on ten
    /// 0.04 GB servers in a 1 km square, at 1% radio activity.
    fn lora_market(users: usize, repr: EligibilityRepr) -> Scenario {
        let foundations = (0..3)
            .map(|f| FoundationSpec::new(format!("edge-fm{f}"), 4, 8_000_000))
            .collect();
        let library = LoraLibraryBuilder::with_foundations(foundations)
            .adapters_per_foundation(8)
            .adapter_size_bytes(1_500_000)
            .head_size_bytes(500_000)
            .build(2024);
        let mut rng = StdRng::seed_from_u64(2024);
        let area = DeploymentArea::new(1000.0).unwrap();
        let servers = (0..10)
            .map(|m| {
                EdgeServer::new(ServerId(m), area.sample_uniform(&mut rng), gigabytes(0.04))
                    .unwrap()
            })
            .collect();
        let positions = area.sample_uniform_n(users, &mut rng);
        let demand = DemandConfig::paper_defaults()
            .generate(users, library.num_models(), &mut rng)
            .unwrap();
        let mut radio = RadioParams::paper_defaults();
        radio.activity_probability = 0.01;
        Scenario::builder()
            .library(library)
            .servers(servers)
            .users_at(&positions)
            .demand(demand)
            .radio(radio)
            .eligibility_repr(repr)
            .build()
            .unwrap()
    }

    /// Runs `engine` to its horizon like [`ShardedServeEngine::run_to`]
    /// without checkpoints, calling `after_merge` after every mobility
    /// merge.
    fn drive_with(
        engine: &mut ShardedServeEngine<'_>,
        mut after_merge: impl FnMut(&ShardedServeEngine<'_>),
    ) {
        for shard in &mut engine.shards {
            shard.state = Some(shard.engine.begin(&engine.shared).unwrap());
        }
        let horizon = engine.config.duration_s;
        loop {
            let outcomes = engine.drive_all(horizon).unwrap();
            let boundary = outcomes.iter().find_map(|outcome| match outcome {
                DriveStop::MobilityBoundary(t) => Some(*t),
                DriveStop::Horizon => None,
            });
            let Some(tb) = boundary else {
                return;
            };
            engine.merge_at(tb).unwrap();
            after_merge(engine);
        }
    }

    /// The merge's contract in the benchmark's mobility regime: 20
    /// `paper_mix` slots over the 5 000-user LoRA market at R = 1 and 4.
    /// After every merge the snapshot's coverage and rates must equal a
    /// full `with_user_positions` rebuild, the primary table must equal
    /// the per-user `primary_server_for` of every user, and the
    /// handovers counted so far must equal an eager recount that
    /// compares every user's primary before and after each merge.
    #[test]
    fn merge_oracle_smoke_paper_mix() {
        let base = lora_market(5_000, EligibilityRepr::Dense);
        for shards in [1, 4] {
            let config = ServeConfig::smoke()
                .with_seed(11)
                .with_duration_s(104.0)
                .with_mobility_slot_s(5.0);
            let mut engine = ShardedServeEngine::new(&base, &Lru, config, shards)
                .unwrap()
                .with_threads(2);
            let mut eager = primary_servers(&base).unwrap();
            let (mut merges, mut eager_handovers) = (0, 0u64);
            drive_with(&mut engine, |engine| {
                merges += 1;
                let snapshot = &*engine.shared.snapshot;
                let positions: Vec<Point> = snapshot.users().iter().map(|u| u.position()).collect();
                let rebuilt = base.with_user_positions(&positions).unwrap();
                assert_eq!(snapshot.coverage(), rebuilt.coverage(), "R={shards}");
                assert_eq!(snapshot.rates(), rebuilt.rates(), "R={shards}");
                let fresh = primary_servers(&rebuilt).unwrap();
                assert_eq!(engine.shared.primary, fresh, "R={shards} merge {merges}");
                eager_handovers += eager.iter().zip(&fresh).filter(|(a, b)| a != b).count() as u64;
                eager = fresh;
                let handovers: u64 = engine
                    .shards
                    .iter()
                    .map(|shard| shard.engine.metrics.handovers)
                    .sum();
                assert_eq!(handovers, eager_handovers, "R={shards} merge {merges}");
            });
            assert_eq!(merges, 20, "R={shards}");
            assert!(eager_handovers > 0, "R={shards}: no handover happened");
        }
    }

    /// What the serve path and the planner read in the engine's mobility
    /// regime: 20 `paper_mix` slots over a 500-user LoRA market, at
    /// R = 1 and 4, dense and sparse. After every merge, every request
    /// class's scored candidates as the serve path takes them must list
    /// the row of a full rebuild, and equal the pointwise
    /// `LatencyEvaluator::eligible` servers with their `latency_s` bit
    /// for bit; the eligibility a re-plan would solve on must equal the
    /// rebuild's.
    #[test]
    fn merge_oracle_smoke_planner_rows() {
        for repr in [EligibilityRepr::Dense, EligibilityRepr::Sparse] {
            let base = lora_market(500, repr);
            assert_eq!(base.eligibility_repr(), repr);
            let (num_servers, num_models) = (base.num_servers(), base.num_models());
            for shards in [1, 4] {
                let config = ServeConfig::smoke()
                    .with_seed(7)
                    .with_duration_s(104.0)
                    .with_mobility_slot_s(5.0);
                let mut engine = ShardedServeEngine::new(&base, &Lru, config, shards)
                    .unwrap()
                    .with_threads(2);
                let (mut merges, mut moved_rows) = (0, false);
                drive_with(&mut engine, |engine| {
                    let shared = &engine.shared;
                    merges += 1;
                    let snapshot = &*shared.snapshot;
                    let positions: Vec<Point> =
                        snapshot.users().iter().map(|u| u.position()).collect();
                    let rebuilt = base.with_user_positions(&positions).unwrap();
                    let planned = shared.eligibility().unwrap();
                    assert_eq!(
                        *planned,
                        *rebuilt.eligibility(),
                        "{repr:?} R={shards} merge {merges}"
                    );
                    moved_rows |= *planned != *base.eligibility();
                    let lazy = evaluator(snapshot);
                    let pointwise = evaluator(&rebuilt);
                    for k in 0..snapshot.num_users() {
                        for i in 0..num_models {
                            let (user, model) = (UserId(k), ModelId(i));
                            let mut scored = Vec::new();
                            lazy.scored_candidates(user, model, |m, latency| {
                                scored.push((m, latency.to_bits()));
                            })
                            .unwrap();
                            let served: Vec<usize> = scored.iter().map(|&(m, _)| m).collect();
                            let row: Vec<usize> =
                                rebuilt.eligibility().servers_for(user, model).collect();
                            assert_eq!(served, row, "{repr:?} R={shards} ({k}, {i})");
                            let eligible: Vec<(usize, u64)> = (0..num_servers)
                                .filter(|&m| pointwise.eligible(m, user, model).unwrap())
                                .map(|m| {
                                    (m, pointwise.latency_s(m, user, model).unwrap().to_bits())
                                })
                                .collect();
                            assert_eq!(scored, eligible, "{repr:?} R={shards} ({k}, {i})");
                        }
                    }
                });
                assert_eq!(merges, 20, "{repr:?} R={shards}");
                // The derivation carried real work: some merge moved the
                // planner's eligibility away from the set-up one.
                assert!(
                    moved_rows,
                    "{repr:?} R={shards}: no merge changed the eligibility"
                );
            }
        }
    }

    fn evaluator(s: &Scenario) -> LatencyEvaluator<'_> {
        LatencyEvaluator::new(
            s.library(),
            s.demand(),
            s.coverage(),
            s.backhaul(),
            s.rates(),
        )
        .unwrap()
    }

    /// A mobile, controller-on run with server 1 down from 12 s: every
    /// re-plan's target must equal `plan_target_masked` on an eagerly
    /// updated snapshot, and at least one re-plan must solve after a
    /// merge with the down server masked.
    #[test]
    fn replans_after_merges_match_an_eager_snapshot() {
        use crate::control::{plan_target_masked, ControlConfig, DriftConfig};
        use crate::faults::{FaultConfig, FaultKind, FaultSpec};

        let base = scenario(60);
        let drift = DriftConfig {
            replan_every_s: 20.0,
            ..DriftConfig::paper_defaults()
        };
        let mut control = ControlConfig::paper_defaults()
            .with_tick_s(10.0)
            .with_drift(drift);
        control.min_observed_requests = 10;
        let faults = FaultConfig::new(vec![FaultSpec {
            at_s: 12.0,
            kind: FaultKind::ServerDown { server: 1 },
        }]);
        let config = ServeConfig::smoke()
            .with_seed(3)
            .with_duration_s(90.0)
            .with_mobility_slot_s(5.0)
            .with_control(control)
            .with_faults(faults);
        let mut engine = ShardedServeEngine::new(&base, &Lru, config, 1).unwrap();
        engine.run_to(90.0).unwrap();
        let replans = &engine.shards[0].engine.replans;
        let mut after_merge_and_masked = 0;
        for probe in replans {
            let mut eager = base.clone();
            eager.update_user_positions(&probe.positions).unwrap();
            let expected = plan_target_masked(&eager, &probe.estimate, &probe.mask).unwrap();
            assert_eq!(
                probe.target, expected,
                "re-plan diverged from the eager snapshot"
            );
            after_merge_and_masked += usize::from(probe.after_merge && probe.mask[1]);
        }
        assert!(
            after_merge_and_masked > 0,
            "no re-plan solved after a merge with a masked server ({} re-plans)",
            replans.len()
        );
    }

    /// A run of `scenario(8)` over `shards` regions with a fault schedule
    /// and a scheduled reconciliation, captured at 20 s and edited by
    /// `edit`; restoring it must fail as corrupt instead of dispatching
    /// it. Returns the error's context.
    fn hostile_checkpoint_context(shards: usize, edit: impl FnOnce(&mut Checkpoint)) -> String {
        use crate::faults::{FaultConfig, FaultKind, FaultSpec};

        let s = scenario(8);
        let faults = FaultConfig::new(vec![FaultSpec {
            at_s: 50.0,
            kind: FaultKind::ServerDown { server: 0 },
        }]);
        let config = ServeConfig::smoke()
            .with_seed(5)
            .with_mobility_slot_s(5.0)
            .with_faults(faults);
        let mut engine = ShardedServeEngine::new(&s, &Lru, config, shards).unwrap();
        engine
            .schedule_reconcile(40.0, s.empty_placement())
            .unwrap();
        engine.run_to(20.0).unwrap();
        let mut cp = engine.capture(20.0).unwrap();
        assert!(cp.regions[0].events.len() > 2);
        edit(&mut cp);
        let resumed = ShardedServeEngine::restore(&s, &Lru, &cp, None).and_then(|e| e.run());
        match resumed {
            Err(RuntimeError::Persist(PersistError::Corrupt { context })) => context,
            other => panic!("{:?}: {other:?}", cp.regions),
        }
    }

    /// A one-region [`hostile_checkpoint_context`] with its pending
    /// events edited by `edit`.
    fn assert_hostile_events_are_corrupt(edit: impl FnOnce(&mut RegionState)) {
        hostile_checkpoint_context(1, |cp| edit(&mut cp.regions[0]));
    }

    /// Whether `event` is a `Request` of its user's current generation.
    fn is_live(cp: &Checkpoint, event: &Event) -> bool {
        matches!(event.kind, EventKind::Request { user, generation }
            if cp.generation[user.index()] == generation)
    }

    #[test]
    fn a_broken_request_chain_is_corrupt() {
        // One live request rewritten to another pending user: that user
        // holds two live chains and the first holds none.
        let context = hostile_checkpoint_context(1, |cp| {
            let live: Vec<usize> = (0..cp.regions[0].events.len())
                .filter(|&e| is_live(cp, &cp.regions[0].events[e]))
                .collect();
            let events = &mut cp.regions[0].events;
            events[live[0]].kind = events[live[1]].kind;
        });
        assert!(
            context.contains("live request chains, not one"),
            "{context}"
        );
        // A live request dropped: its user holds no chain.
        let context = hostile_checkpoint_context(1, |cp| {
            let first = cp.regions[0].events.iter().position(|e| is_live(cp, e));
            cp.regions[0].events.remove(first.unwrap());
        });
        assert!(context.contains("0 live request chains"), "{context}");
        // A live request moved to the next of four regions under a fresh
        // sequence number there, so only ownership is wrong.
        let context = hostile_checkpoint_context(4, |cp| {
            let (from, e) = (0..4)
                .find_map(|r| Some((r, cp.regions[r].events.iter().position(|e| is_live(cp, e))?)))
                .unwrap();
            let mut event = cp.regions[from].events.remove(e);
            let to = &mut cp.regions[(from + 1) % 4];
            (event.seq, to.next_seq) = (to.next_seq, to.next_seq + 1);
            to.events.push(event);
        });
        assert!(
            context.contains("live request chain is in region"),
            "{context}"
        );
    }

    /// [`assert_hostile_events_are_corrupt`] with the first pending event's
    /// kind replaced by `kind`.
    fn assert_hostile_event_is_corrupt(kind: EventKind) {
        assert_hostile_events_are_corrupt(|region| region.events[0].kind = kind);
    }

    #[test]
    fn a_hostile_event_time_is_corrupt() {
        for time_s in [f64::NAN, f64::INFINITY, -1.0, -0.0] {
            assert_hostile_events_are_corrupt(|region| region.events[1].time_s = time_s);
        }
    }

    #[test]
    fn an_event_before_the_checkpoint_time_is_corrupt() {
        assert_hostile_events_are_corrupt(|region| region.events[1].time_s = 19.5);
    }

    #[test]
    fn a_duplicate_event_seq_is_corrupt() {
        assert_hostile_events_are_corrupt(|region| region.events[2].seq = region.events[1].seq);
    }

    #[test]
    fn an_event_seq_at_or_past_next_seq_is_corrupt() {
        for ahead in [0, 7] {
            assert_hostile_events_are_corrupt(|region| {
                region.events[1].seq = region.next_seq + ahead;
            });
        }
    }

    #[test]
    fn a_hostile_request_user_is_corrupt() {
        let user = UserId(scenario(8).num_users());
        assert_hostile_event_is_corrupt(EventKind::Request {
            user,
            generation: 0,
        });
    }

    /// A two-region [`hostile_checkpoint_context`] with `kind` added to
    /// region 1's pending events under a fresh sequence number. Region 1
    /// simulates servers 2 and 3 of `scenario`, not server 0.
    fn assert_foreign_event_is_corrupt(kind: EventKind) {
        let context = hostile_checkpoint_context(2, |cp| {
            let time_s = cp.time_s + 1.0;
            let region = &mut cp.regions[1];
            let seq = region.next_seq;
            region.events.push(Event { time_s, seq, kind });
            region.next_seq += 1;
        });
        assert!(context.contains("which it does not own"), "{context}");
    }

    #[test]
    fn a_hostile_transfer_complete_is_corrupt() {
        let s = scenario(8);
        let (servers, models) = (s.num_servers(), s.num_models());
        for (server, model) in [(servers, 0), (0, models)] {
            assert_hostile_event_is_corrupt(EventKind::TransferComplete {
                server,
                model: ModelId(model),
            });
        }
        assert_foreign_event_is_corrupt(EventKind::TransferComplete {
            server: 0,
            model: ModelId(0),
        });
    }

    #[test]
    fn a_hostile_retry_fill_is_corrupt() {
        let s = scenario(8);
        let (servers, models) = (s.num_servers(), s.num_models());
        for (server, model) in [(servers, 0), (0, models)] {
            assert_hostile_event_is_corrupt(EventKind::RetryFill {
                server,
                model: ModelId(model),
                attempt: 1,
            });
        }
        assert_foreign_event_is_corrupt(EventKind::RetryFill {
            server: 0,
            model: ModelId(0),
            attempt: 1,
        });
    }

    #[test]
    fn a_hostile_scheduled_reconcile_is_corrupt() {
        assert_hostile_event_is_corrupt(EventKind::ScheduledReconcile { index: 1 });
    }

    #[test]
    fn a_hostile_fault_transition_is_corrupt() {
        assert_hostile_event_is_corrupt(EventKind::FaultTransition { index: 1 });
        // The schedule's only transition takes server 0 down.
        assert_foreign_event_is_corrupt(EventKind::FaultTransition { index: 0 });
    }

    /// A CRC-valid checkpoint whose server holds more resident models
    /// than its capacity must fail to restore as corrupt instead of
    /// resuming into an over-committed cache.
    #[test]
    fn a_hostile_resident_set_over_capacity_is_corrupt() {
        let s = lora_market(50, EligibilityRepr::Dense);
        let config = ServeConfig::smoke().with_seed(5);
        let mut engine = ShardedServeEngine::new(&s, &Lru, config, 1).unwrap();
        engine.run_to(20.0).unwrap();
        let mut cp = engine.capture(20.0).unwrap();
        let every_model: Vec<ModelId> = (0..s.num_models()).map(ModelId).collect();
        let mut needed = trimcaching_scenario::StorageTracker::new(s.library(), u64::MAX);
        for &i in &every_model {
            needed.add(i).unwrap();
        }
        let capacity = s.servers()[0].capacity_bytes();
        assert!(needed.used_bytes() > capacity, "the library fits a cache");
        cp.servers[0].cache.resident = every_model;
        let resumed = ShardedServeEngine::restore(&s, &Lru, &cp, None);
        assert!(
            matches!(
                resumed,
                Err(RuntimeError::Persist(PersistError::Corrupt { .. }))
            ),
            "{:?}",
            resumed.err()
        );
    }

    /// A checkpoint whose primary table disagrees with the snapshot it
    /// restores must fail as corrupt: merges recount only refreshed
    /// users, so the wrong entry would otherwise miscount handovers for
    /// the rest of the run.
    #[test]
    fn a_hostile_primary_table_is_corrupt() {
        let s = scenario(8);
        let config = ServeConfig::smoke().with_seed(5).with_mobility_slot_s(5.0);
        let mut engine = ShardedServeEngine::new(&s, &Lru, config, 1).unwrap();
        engine.run_to(20.0).unwrap();
        let cp = engine.capture(20.0).unwrap();
        assert!(ShardedServeEngine::restore(&s, &Lru, &cp, None).is_ok());
        let k = cp.primary.iter().position(Option::is_some).unwrap();
        for hostile in [None, Some(s.num_servers())] {
            let mut cp = cp.clone();
            cp.primary[k] = hostile;
            let resumed = ShardedServeEngine::restore(&s, &Lru, &cp, None);
            assert!(
                matches!(
                    resumed,
                    Err(RuntimeError::Persist(PersistError::Corrupt { .. }))
                ),
                "{hostile:?}: {:?}",
                resumed.err()
            );
        }
    }

    /// Each region holds caches, links and down flags for exactly the
    /// servers of its strip — none at all for a strip without servers —
    /// and the report's final caches are the owner regions' caches.
    /// `scenario(8)` at seed 5, captured at 20 s with its workload
    /// edited by `edit`, sent through the checkpoint's byte image (so
    /// the CRC is valid) and restored.
    fn restore_hostile_workload(edit: impl FnOnce(&mut Workload)) -> Result<(), RuntimeError> {
        let s = scenario(8);
        let config = ServeConfig::smoke().with_seed(5).with_mobility_slot_s(5.0);
        let mut engine = ShardedServeEngine::new(&s, &Lru, config, 1).unwrap();
        engine.run_to(20.0).unwrap();
        let mut cp = engine.capture(20.0).unwrap();
        edit(&mut cp.workload);
        let cp = Checkpoint::from_bytes(&cp.to_bytes())?;
        ShardedServeEngine::restore(&s, &Lru, &cp, None).map(drop)
    }

    type WorkloadEdit = Box<dyn FnOnce(&mut Workload)>;

    /// Requires every workload edit of `edits` to fail decoding as
    /// corrupt, and the unedited checkpoint to restore.
    fn assert_hostile_workloads_are_corrupt(edits: Vec<WorkloadEdit>) {
        restore_hostile_workload(|_| {}).unwrap();
        for (n, edit) in edits.into_iter().enumerate() {
            let restored = restore_hostile_workload(edit);
            assert!(
                matches!(
                    restored,
                    Err(RuntimeError::Persist(PersistError::Corrupt { .. }))
                ),
                "edit {n}: {restored:?}"
            );
        }
    }

    /// A second phase copying the first, starting at `start_s`.
    fn add_phase(w: &mut Workload, start_s: f64) {
        w.starts_s.push(start_s);
        w.cdfs.extend_from_within(..);
    }

    #[test]
    fn a_hostile_workload_rate_is_corrupt() {
        assert_hostile_workloads_are_corrupt(
            [0.0, -1.0, f64::NAN, f64::INFINITY]
                .into_iter()
                .map(|rate| -> WorkloadEdit { Box::new(move |w| w.rate_hz = rate) })
                .collect(),
        );
    }

    #[test]
    fn a_hostile_workload_phase_start_is_corrupt() {
        assert_hostile_workloads_are_corrupt(vec![
            Box::new(|w| w.starts_s[0] = 1.0),
            Box::new(|w| w.starts_s[0] = f64::NAN),
            Box::new(|w| add_phase(w, 0.0)),
            Box::new(|w| add_phase(w, f64::INFINITY)),
            Box::new(|w| {
                add_phase(w, 30.0);
                add_phase(w, 10.0);
            }),
        ]);
        // A well-formed second phase restores.
        restore_hostile_workload(|w| add_phase(w, 30.0)).unwrap();
    }

    #[test]
    fn a_hostile_workload_width_is_a_mismatch() {
        // Every row one entry wider: still CDFs, but over more models
        // than the library holds.
        let restored = restore_hostile_workload(|w| {
            let width = w.width;
            w.cdfs = w
                .cdfs
                .chunks_exact(width)
                .flat_map(|cdf| cdf.iter().copied().chain([1.0]))
                .collect();
            w.width += 1;
        });
        assert!(
            matches!(
                restored,
                Err(RuntimeError::Persist(PersistError::Mismatch { .. }))
            ),
            "{restored:?}"
        );
    }

    #[test]
    fn a_hostile_workload_cdf_is_corrupt() {
        assert_hostile_workloads_are_corrupt(vec![
            // Empty rows.
            Box::new(|w| {
                w.width = 0;
                w.cdfs.clear();
            }),
            Box::new(|w| w.cdfs[0] = f64::NAN),
            Box::new(|w| w.cdfs[0] = -0.25),
            // Decreasing.
            Box::new(|w| w.cdfs[0] = 2.0),
            // Not ending at exactly 1.
            Box::new(|w| {
                let last = w.width - 1;
                w.cdfs[last] = 1.0 - f64::EPSILON;
            }),
            Box::new(|w| {
                let last = w.cdfs.len() - 1;
                w.cdfs[last] = f64::INFINITY;
            }),
        ]);
    }

    #[test]
    fn regions_hold_exactly_their_strips_servers() {
        let s = scenario(16);
        let num_servers = s.num_servers();
        let mut placement = s.empty_placement();
        for m in 0..num_servers {
            placement.place(ServerId(m), ModelId(m)).unwrap();
        }
        for shards in [1, 2, 4, 8] {
            let config = ServeConfig::smoke().with_seed(3);
            let mut engine = ShardedServeEngine::new(&s, &Lru, config, shards).unwrap();
            engine.warm_start(&placement).unwrap();
            let mut held = 0;
            for (r, shard) in engine.shards.iter().enumerate() {
                let strip: Vec<usize> = (0..num_servers)
                    .filter(|&m| engine.partition.strip_of(s.servers()[m].position().x) == r)
                    .collect();
                assert_eq!(shard.engine.servers, strip, "R = {shards}, region {r}");
                assert_eq!(shard.engine.slot_counts(), [strip.len(); 3]);
                held += strip.len();
            }
            assert_eq!(held, num_servers, "R = {shards}");
            if shards == 8 {
                let empty = engine
                    .shards
                    .iter()
                    .filter(|shard| shard.engine.servers.is_empty());
                assert_eq!(empty.count(), 4, "four of eight strips have no server");
            }
            engine.run_to(engine.config.duration_s).unwrap();
            let servable: Vec<Vec<ModelId>> = engine
                .shared
                .home
                .iter()
                .map(|home| {
                    let cache = engine.shards[home.region]
                        .engine
                        .server_state(home.slot)
                        .cache;
                    let servable = cache.resident.iter().filter(|i| !cache.pending[i.index()]);
                    servable.copied().collect()
                })
                .collect();
            let report = engine.run().unwrap();
            assert_eq!(report.final_caches, servable, "R = {shards}");
            assert!(report.final_caches.iter().all(|cached| !cached.is_empty()));
        }
    }

    /// A placement of other dimensions than the scenario fails at warm
    /// start instead of losing its surplus rows.
    #[test]
    fn warm_start_rejects_a_placement_of_other_dimensions() {
        let s = scenario(8);
        let (servers, models) = (s.num_servers(), s.num_models());
        for (m, i) in [
            (servers + 1, models),
            (servers - 1, models),
            (servers, models + 1),
        ] {
            for shards in [1, 2] {
                let config = ServeConfig::smoke();
                let mut engine = ShardedServeEngine::new(&s, &Lru, config, shards).unwrap();
                let warmed = engine.warm_start(&Placement::empty(m, i));
                assert!(
                    matches!(warmed, Err(RuntimeError::InvalidConfig { .. })),
                    "{m}x{i} at R = {shards}: {warmed:?}"
                );
            }
        }
    }

    #[test]
    fn set_workload_rejects_a_workload_of_other_dimensions() {
        let s = scenario(8);
        let mut engine = ShardedServeEngine::new(&s, &Lru, ServeConfig::smoke(), 1).unwrap();
        let fits = Workload::from_demand(s.demand(), 1.0).unwrap();
        engine.set_workload(fits).unwrap();
        for (users, models) in [(9, s.num_models()), (8, s.num_models() + 1)] {
            let demand = DemandConfig::paper_defaults()
                .generate(users, models, &mut StdRng::seed_from_u64(1))
                .unwrap();
            let workload = Workload::from_demand(&demand, 1.0).unwrap();
            let set = engine.set_workload(workload);
            assert!(
                matches!(set, Err(RuntimeError::InvalidConfig { .. })),
                "{users}x{models}: {set:?}"
            );
        }
    }

    #[test]
    fn zero_shards_are_rejected_and_degenerate_partitions_collapse() {
        let s = scenario(6);
        let err = ShardedServeEngine::new(&s, &Lru, ServeConfig::smoke(), 0);
        assert!(err.is_err(), "zero shards must be rejected");
        // More shards than distinct strips still runs (empty shards are
        // legal: strips with no servers reject their users' requests).
        let report = run_sharded(&s, &ServeConfig::smoke().with_seed(3), 8, 2);
        let report = report.unwrap();
        assert_eq!(
            report.metrics.requests,
            report.metrics.hits + report.metrics.misses_served + report.metrics.rejected
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

        /// Every user is one Poisson stream of rate `rate` whatever its
        /// region: a migration restarts the stream with a fresh
        /// (memoryless) gap, so the request count of a mobile run is
        /// Poisson with mean K·rate·T for every R.
        #[test]
        fn mobile_request_load_is_poisson_for_any_shard_count(seed in 0u64..1_000) {
            let (users, rate_hz, duration_s) = (150, 0.2, 120.0);
            let s = scenario(users);
            let config = ServeConfig::smoke()
                .with_seed(seed)
                .with_request_rate_hz(rate_hz)
                .with_duration_s(duration_s)
                .with_mobility_slot_s(5.0);
            let mean = users as f64 * rate_hz * duration_s;
            for shards in [1, 2, 4, 8] {
                let requests = run_sharded(&s, &config, shards, 2).unwrap().metrics.requests;
                proptest::prop_assert!(
                    (requests as f64 - mean).abs() <= 5.0 * mean.sqrt(),
                    "{requests} requests at R = {shards}; Poisson mean {mean}"
                );
            }
        }
    }
}

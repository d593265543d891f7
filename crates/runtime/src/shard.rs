//! Region-sharded serving: one scenario, R deterministic shards.
//!
//! A single [`ServeEngine`] walks one event queue
//! with one RNG — correct, but serial. City-scale scenarios are
//! spatially local: a request only ever considers the handful of
//! servers covering its user, so servers far apart almost never
//! interact. [`ShardedServeEngine`] exploits that locality by
//! partitioning the deployment into `R` vertical strips over the server
//! x-coordinates. Each strip becomes a *shard*: a full
//! [`ServeEngine`] that owns the strip's servers
//! (caches, backhaul links, fault transitions, regional controller) and
//! the users currently inside the strip (request streams, kinematics,
//! handover accounting), with its own event queue and its own RNG
//! stream seeded `run seed + shard id`.
//!
//! Between mobility boundaries the shards share nothing and run freely
//! on a pool of worker threads. At every mobility boundary the
//! coordinator merges deterministically, in shard-id order: it
//! assembles the global position vector from the owner shards'
//! kinematics, applies the same slot update to every shard's radio
//! snapshot (so all snapshots stay identical), and migrates ownership
//! of users that crossed a strip border (ascending user id; the old
//! owner's pending request becomes a tombstone, the new owner copies
//! the kinematics and schedules a fresh arrival). Because every merge
//! is single-threaded and ordered, **the trace is a pure function of
//! `(scenario, policy, config, R)` — byte-identical across any worker
//! thread count** — and a run with `R = 1` reproduces the classic
//! single-engine trace bit for bit.
//!
//! Sharding *is* a model change for `R > 1`: a request is served only
//! by eligible servers of its owner's strip, and each strip plans its
//! own re-placements. That is the regional-autonomy semantics real edge
//! deployments have (a Shenzhen cell does not fail over to Guangzhou),
//! and it is what makes the strips independent enough to parallelise.
//!
//! Durable sharded runs journal per shard (`journal_<id>.tcj`) and
//! write one shared checkpoint file whose payload carries one state per
//! shard (`CHECKPOINT_VERSION` 3); [`ShardedServeEngine::resume`]
//! restores every shard byte-identically, re-deriving strip membership
//! and user ownership from the static topology and the checkpointed
//! positions.

use trimcaching_scenario::{Placement, Scenario, UserId};
use trimcaching_wireless::geometry::Point;

use crate::engine::{DriveStop, RunState, ServeConfig, ServeEngine, ServeReport, ShardSpec};
use crate::error::RuntimeError;
use crate::fanout::par_map;
use crate::persist::checkpoint::{CheckpointSaver, CheckpointState};
use crate::persist::{Checkpoint, PersistConfig};
use crate::policy::EvictionPolicy;
use crate::workload::Workload;

/// The static strip partition of a scenario: which servers belong to
/// which shard, and the geometry deciding which strip a coordinate (and
/// therefore a user) falls into.
#[derive(Debug, Clone)]
struct Partition {
    min_x: f64,
    strip_w: f64,
    num_shards: usize,
    /// `member_servers[s][m]` — server `m` belongs to shard `s`.
    member_servers: Vec<Vec<bool>>,
}

impl Partition {
    /// Splits the server x-coordinate bounding box into `num_shards`
    /// equal strips. Degenerate spans (one server, or all servers on
    /// one vertical line) collapse into strip 0.
    fn over(scenario: &Scenario, num_shards: usize) -> Self {
        let xs: Vec<f64> = scenario.servers().iter().map(|s| s.position().x).collect();
        let min_x = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max_x = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let span = max_x - min_x;
        let strip_w = if span.is_finite() && span > 0.0 {
            span / num_shards as f64
        } else {
            0.0
        };
        let mut partition = Self {
            min_x,
            strip_w,
            num_shards,
            member_servers: Vec::new(),
        };
        let mut member_servers = vec![vec![false; xs.len()]; num_shards];
        for (m, &x) in xs.iter().enumerate() {
            member_servers[partition.strip_of(x)][m] = true;
        }
        partition.member_servers = member_servers;
        partition
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

/// One shard: its engine plus the run state the coordinator drives it
/// through.
struct ShardRun<'a> {
    engine: ServeEngine<'a>,
    state: Option<RunState>,
}

/// A serving run partitioned into deterministic region shards — see the
/// module docs for the model and the determinism contract.
pub struct ShardedServeEngine<'a> {
    config: ServeConfig,
    threads: usize,
    partition: Partition,
    /// Authoritative user-ownership map (`owner[k]` = shard id),
    /// mirrored into every shard's spec masks.
    owner: Vec<usize>,
    shards: Vec<ShardRun<'a>>,
    /// Simulated time of the next shared checkpoint boundary
    /// (`f64::INFINITY` for in-memory runs).
    next_checkpoint_s: f64,
    saver: CheckpointSaver,
}

impl<'a> ShardedServeEngine<'a> {
    /// Prepares a sharded engine over `scenario` with `num_shards`
    /// strips. `num_shards == 1` is the classic engine behind a thread
    /// pool of one — its trace is bit-identical to
    /// [`ServeEngine::run`](crate::ServeEngine::run).
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
        if num_shards == 0 {
            return Err(RuntimeError::InvalidConfig {
                reason: "a sharded run needs at least one shard".into(),
            });
        }
        config.validate()?;
        let partition = Partition::over(scenario, num_shards);
        let positions: Vec<Point> = scenario.users().iter().map(|u| u.position()).collect();
        let owner = partition.owners_of(&positions);
        let mut shards = Vec::with_capacity(num_shards);
        for s in 0..num_shards {
            let shard_config = config.clone().with_seed(config.seed.wrapping_add(s as u64));
            let mut engine = ServeEngine::new(scenario, policy, shard_config)?;
            engine.set_shard(ShardSpec {
                id: s,
                owned_users: owner.iter().map(|&o| o == s).collect(),
                member_servers: partition.member_servers[s].clone(),
            });
            shards.push(ShardRun {
                engine,
                state: None,
            });
        }
        let next_checkpoint_s = if config.persist.is_some() {
            0.0
        } else {
            f64::INFINITY
        };
        Ok(Self {
            config,
            threads: 0,
            partition,
            owner,
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

    /// Warm-starts every shard's member caches from an offline
    /// placement, exactly like [`ServeEngine::warm_start`]
    /// (non-member servers are other shards' rows of the placement).
    ///
    /// [`ServeEngine::warm_start`]: crate::ServeEngine::warm_start
    ///
    /// # Errors
    ///
    /// Propagates scenario errors for mismatched placements.
    pub fn warm_start(&mut self, placement: &Placement) -> Result<(), RuntimeError> {
        for shard in &mut self.shards {
            shard.engine.warm_start(placement)?;
        }
        Ok(())
    }

    /// Replaces every shard's request-generation workload, exactly like
    /// [`ServeEngine::set_workload`]: each shard samples its *own*
    /// users from the shared workload, so piecewise shifts, flash
    /// crowds and tides apply city-wide.
    ///
    /// [`ServeEngine::set_workload`]: crate::ServeEngine::set_workload
    ///
    /// # Errors
    ///
    /// Propagates [`RuntimeError::InvalidConfig`] for a workload whose
    /// user count differs from the scenario's.
    pub fn set_workload(&mut self, workload: Workload) -> Result<(), RuntimeError> {
        for shard in &mut self.shards {
            shard.engine.set_workload(workload.clone())?;
        }
        Ok(())
    }

    /// Resumes an interrupted durable sharded run from the shared
    /// checkpoint and the per-shard journals in `persist.dir`. The
    /// shard count is read from the checkpoint; strip membership is
    /// re-derived from the (static) topology and user ownership from
    /// the checkpointed positions — ownership at a boundary is always
    /// exactly "the strip the user stands in".
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, corrupt files, or a policy/seed mismatch
    /// between `policy`, the checkpoint and any shard journal.
    pub fn resume(
        scenario: &'a Scenario,
        policy: &'a dyn EvictionPolicy,
        persist: PersistConfig,
    ) -> Result<Self, RuntimeError> {
        persist.validate()?;
        let cp = Checkpoint::load(&persist.checkpoint_path())?;
        let num_shards = cp.num_shards();
        let partition = Partition::over(scenario, num_shards);
        // Shard 0's stream is seeded with the run seed itself, so its
        // captured config is the run config.
        let mut config = cp.shards[0].config.clone();
        config.persist = Some(persist.clone());
        let owner = partition.owners_of(&cp.shards[0].positions);
        let mut shards = Vec::with_capacity(num_shards);
        for (s, state) in cp.shards.iter().enumerate() {
            let mut engine = ServeEngine::resume_shard(
                scenario,
                policy,
                persist.clone(),
                state,
                &persist.journal_shard_path(s),
            )?;
            engine.set_shard(ShardSpec {
                id: s,
                owned_users: owner.iter().map(|&o| o == s).collect(),
                member_servers: partition.member_servers[s].clone(),
            });
            let run_state = engine
                .take_resume_state()
                .ok_or_else(|| RuntimeError::Internal {
                    reason: format!("restored shard {s} has no staged run state"),
                })?;
            shards.push(ShardRun {
                engine,
                state: Some(run_state),
            });
        }
        let next_checkpoint_s = cp.shards[0].time_s + persist.checkpoint_every_s;
        Ok(Self {
            config,
            threads: 0,
            partition,
            owner,
            shards,
            next_checkpoint_s,
            saver: CheckpointSaver::default(),
        })
    }

    /// Runs all shards to the configured horizon and merges the
    /// per-shard reports: counters sum, histograms add, window traces
    /// merge point-wise, and each server's final cache comes from its
    /// member shard. For one shard the merged report *is* the classic
    /// report.
    ///
    /// # Errors
    ///
    /// Propagates the first error any shard produced.
    pub fn run(mut self) -> Result<ServeReport, RuntimeError> {
        let horizon = self.config.duration_s;
        self.run_to(horizon)?;
        self.saver.wait()?;
        let member_servers = self.partition.member_servers.clone();
        let base_seed = self.config.seed;
        let mut reports = Vec::with_capacity(self.shards.len());
        for shard in self.shards {
            reports.push(shard.engine.finish(horizon)?);
        }
        let mut merged = reports.remove(0);
        merged.seed = base_seed;
        for report in &reports {
            merged.metrics.merge_from(&report.metrics);
        }
        // Each server belongs to exactly one shard; its final cache is
        // that shard's (non-member caches stay empty for the whole run).
        for (s, report) in reports.iter().enumerate() {
            for (m, &member) in member_servers[s + 1].iter().enumerate() {
                if member {
                    merged.final_caches[m] = report.final_caches[m].clone();
                }
            }
        }
        Ok(merged)
    }

    /// Runs the shards up to simulated time `stop_s` and drops the
    /// engine — the durable-run analogue of the process being killed at
    /// `stop_s`, like [`ServeEngine::run_until`]. Every due shared
    /// checkpoint is on disk and every shard journal is flushed;
    /// continue with [`ShardedServeEngine::resume`].
    ///
    /// [`ServeEngine::run_until`]: crate::ServeEngine::run_until
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
            shard.engine.flush_journal()?;
        }
        Ok(self.saver.wait()?)
    }

    /// Drives every shard to `horizon` through checkpoint-bounded
    /// windows: within a window the shards run in parallel and merge at
    /// every mobility boundary; at each due checkpoint boundary all
    /// shards are captured into one shared checkpoint file (the same
    /// boundary grid, boundary `0.0` included, as the classic engine).
    fn run_to(&mut self, horizon: f64) -> Result<(), RuntimeError> {
        if self.shards[0].state.is_none() {
            for shard in &mut self.shards {
                let state = shard.engine.begin()?;
                shard.state = Some(state);
            }
        }
        loop {
            let window_end = horizon.min(self.next_checkpoint_s);
            self.drive_window(window_end)?;
            if self.next_checkpoint_s > horizon {
                return Ok(());
            }
            let due = self.next_checkpoint_s;
            if let Some(pc) = self.config.persist.clone() {
                let mut states: Vec<CheckpointState> = Vec::with_capacity(self.shards.len());
                for shard in &mut self.shards {
                    let state = shard.state.as_ref().ok_or_else(no_run_state)?;
                    states.push(shard.engine.capture_for_checkpoint(due, state)?);
                }
                self.saver.save(
                    pc.checkpoint_path(),
                    Checkpoint { shards: states },
                    pc.fsync,
                )?;
                self.next_checkpoint_s = due + pc.checkpoint_every_s;
            } else {
                // Unreachable (a finite boundary implies persistence),
                // but a clean stop beats a spin.
                return Ok(());
            }
            if window_end >= horizon {
                return Ok(());
            }
        }
    }

    /// Drives every shard to `window_end`, running the deterministic
    /// cross-shard merge at each mobility boundary on the way.
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
                                    "shards disagree on the mobility boundary: {prev} vs {t}"
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
                        "some shards reached the window end while others stopped at the \
                         mobility boundary {tb} — the slot grids diverged"
                    ),
                });
            }
            self.merge_at(tb)?;
        }
    }

    /// One round of parallel shard driving on the worker pool. The
    /// outcomes come back in shard-id order whatever the thread
    /// scheduling, so everything downstream is deterministic.
    fn drive_all(&mut self, stop_s: f64) -> Result<Vec<DriveStop>, RuntimeError> {
        par_map(&mut self.shards, self.threads, |_, shard| {
            let ShardRun { engine, state } = shard;
            let state = state.as_mut().ok_or_else(no_run_state)?;
            engine.drive(state, stop_s)
        })
    }

    /// The deterministic cross-shard merge at mobility boundary `tb`,
    /// entirely single-threaded and ordered by shard id then user id:
    ///
    /// 1. assemble the global position vector from the owner shards'
    ///    kinematics (each shard steps *all* users for RNG parity, but
    ///    only owned rows are authoritative);
    /// 2. apply the same slot update to every shard's radio snapshot —
    ///    identical inputs keep all snapshots identical;
    /// 3. migrate ownership of users that crossed a strip border: copy
    ///    the kinematic row to the new owner, flip both masks, and let
    ///    the new owner schedule a fresh arrival (the old owner's
    ///    pending request dies as a tombstone).
    fn merge_at(&mut self, tb: f64) -> Result<(), RuntimeError> {
        let num_users = self.owner.len();
        let mut global = vec![Point::new(0.0, 0.0); num_users];
        for (s, shard) in self.shards.iter().enumerate() {
            let state = shard.state.as_ref().ok_or_else(no_run_state)?;
            let mobility = state
                .mobility
                .as_ref()
                .ok_or_else(|| RuntimeError::Internal {
                    reason: "a mobility boundary fired but a shard has no mobility model".into(),
                })?;
            let users = mobility.users();
            for (k, &owner) in self.owner.iter().enumerate() {
                if owner == s {
                    global[k] = users[k].position;
                }
            }
        }
        for shard in &mut self.shards {
            shard.engine.apply_slot_positions(&global)?;
        }
        // Migration order is part of the determinism contract: strictly
        // ascending user id, so the index loop is deliberate.
        #[allow(clippy::needless_range_loop)]
        for k in 0..num_users {
            let from = self.owner[k];
            let to = self.partition.strip_of(global[k].x);
            if to == from {
                continue;
            }
            let row = {
                let state = self.shards[from].state.as_ref().ok_or_else(no_run_state)?;
                let mobility = state.mobility.as_ref().ok_or_else(no_run_state)?;
                mobility.users()[k]
            };
            {
                let state = self.shards[to].state.as_mut().ok_or_else(no_run_state)?;
                let mobility = state.mobility.as_mut().ok_or_else(no_run_state)?;
                mobility.set_user(k, row)?;
            }
            if let Some(spec) = self.shards[from].engine.shard_spec_mut() {
                spec.owned_users[k] = false;
            }
            if let Some(spec) = self.shards[to].engine.shard_spec_mut() {
                spec.owned_users[k] = true;
            }
            self.owner[k] = to;
            let ShardRun { engine, state } = &mut self.shards[to];
            let state = state.as_mut().ok_or_else(no_run_state)?;
            engine.schedule_user_request(state, UserId(k), tb);
        }
        Ok(())
    }
}

/// The internal error for a shard whose run state went missing — only
/// reachable through a coordinator bug, never through user input.
fn no_run_state() -> RuntimeError {
    RuntimeError::Internal {
        reason: "a shard has no run state".into(),
    }
}

/// Runs one sharded serving replay: build the sharded engine, optional
/// warm start, run — the sharded analogue of [`serve`](crate::serve).
///
/// # Errors
///
/// Propagates configuration and scenario errors.
pub fn serve_sharded(
    scenario: &Scenario,
    policy: &dyn EvictionPolicy,
    initial: Option<&Placement>,
    config: &ServeConfig,
    num_shards: usize,
    threads: usize,
) -> Result<ServeReport, RuntimeError> {
    let mut engine = ShardedServeEngine::new(scenario, policy, config.clone(), num_shards)?
        .with_threads(threads);
    if let Some(placement) = initial {
        engine.warm_start(placement)?;
    }
    engine.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::serve;
    use crate::policy::Lru;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::path::{Path, PathBuf};
    use trimcaching_modellib::builders::SpecialCaseBuilder;
    use trimcaching_scenario::prelude::*;
    use trimcaching_wireless::geometry::DeploymentArea;

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

    #[test]
    fn one_shard_reproduces_the_classic_trace() {
        let s = scenario(14);
        let classic_dir = temp_dir("classic");
        let sharded_dir = temp_dir("r1");
        let classic = serve(&s, &Lru, None, &config(&classic_dir)).unwrap();
        let sharded = serve_sharded(&s, &Lru, None, &config(&sharded_dir), 1, 1).unwrap();
        assert_eq!(
            classic, sharded,
            "R=1 must be bit-equal to the classic engine"
        );
        assert!(classic.metrics.requests > 0);
        assert!(classic.metrics.users_refreshed > 0, "mobility must fire");
        assert_eq!(
            journal_bytes(PersistConfig::new(&classic_dir).journal_path()),
            journal_bytes(PersistConfig::new(&sharded_dir).journal_shard_path(0)),
            "the single shard's journal must be byte-identical to the classic journal"
        );
    }

    #[test]
    fn worker_thread_count_never_changes_the_trace() {
        let s = scenario(16);
        let serial_dir = temp_dir("t1");
        let pooled_dir = temp_dir("t4");
        let serial = serve_sharded(&s, &Lru, None, &config(&serial_dir), 4, 1).unwrap();
        let pooled = serve_sharded(&s, &Lru, None, &config(&pooled_dir), 4, 4).unwrap();
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
        let a = serve_sharded(&s, &Lru, None, &config(&a_dir), 2, 2).unwrap();
        let b = serve_sharded(&s, &Lru, None, &config(&b_dir), 2, 2).unwrap();
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
        let reference = serve_sharded(&s, &Lru, None, &config(&reference_dir), 2, 2).unwrap();

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

    #[test]
    fn zero_shards_are_rejected_and_degenerate_partitions_collapse() {
        let s = scenario(6);
        let err = ShardedServeEngine::new(&s, &Lru, ServeConfig::smoke(), 0);
        assert!(err.is_err(), "zero shards must be rejected");
        // More shards than distinct strips still runs (empty shards are
        // legal: strips with no servers reject their users' requests).
        let report = serve_sharded(&s, &Lru, None, &ServeConfig::smoke().with_seed(3), 8, 2);
        let report = report.unwrap();
        assert_eq!(
            report.metrics.requests,
            report.metrics.hits + report.metrics.misses_served + report.metrics.rejected
        );
    }
}

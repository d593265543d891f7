//! The event-driven serving engine.
//!
//! A run replays a live request workload against one scenario: Poisson
//! request arrivals per user ([`Workload`]), user mobility advanced in
//! event time with radio-snapshot re-derivation (and thus server
//! handover), request service through the scenario's
//! [`LatencyEvaluator`]/eligibility machinery, and per-server caches
//! maintained online by a pluggable [`EvictionPolicy`].
//!
//! There is one engine path. Every run is a coordinator
//! ([`ShardedServeEngine`]) driving `R` region engines over **one**
//! shared radio snapshot; [`ServeEngine`] is the `R = 1` constructor of
//! that coordinator, so the classic trace is the one-region trace by
//! construction. This module holds the region engine — the serve path,
//! control loop, fault handling and journal of one region — and
//! [`crate::shard`] holds the coordinator: strip partition, worker
//! pool, the snapshot update at mobility boundaries, ownership
//! migration and checkpoints.
//!
//! A request by user `k` for model `i` is served exactly as the paper's
//! service model prescribes (Eqs. 3–5): any server `m` with
//! `I1(m, k, i) = 1` can deliver within the deadline; if an eligible
//! server caches `i` the request is a **hit** and is served by the
//! eligible cache with the lowest end-to-end latency. Otherwise, if some
//! eligible server exists, the model is fetched from the cloud through
//! that server (**miss**) and offered to its cache under the eviction
//! policy. If no server is eligible the request is **rejected**.
//!
//! Misses are *block-granular pipelines*, not instantaneous fills: the
//! engine computes which parameter blocks are absent at the chosen
//! server, puts only those bytes on the server's congestion-aware
//! [`BackhaulLink`] (in-flight transfers degrade the effective rate),
//! and schedules a [`EventKind::TransferComplete`] event at which the
//! model becomes servable. Blocks already resident — or already on the
//! wire for another fill — are never re-downloaded, so parameter
//! sharing is rewarded on the backhaul path exactly as it is in storage
//! (the fine-grained downloading direction of arXiv:2509.19341).
//! [`FillGranularity::WholeModel`] is the compatibility mode in which
//! every fill moves the full model artifact, making sharing invisible
//! on the wire — the baseline the `block_transfer` bench pins against.
//!
//! Determinism: a seeded RNG per region, a tie-broken event queue,
//! transfer rates frozen at transfer start and policies that are pure
//! functions of cache state make every run a pure function of
//! `(scenario, policy, config, R)` — identical seeds produce identical
//! metric traces, which the integration tests assert.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::path::Path;

use rand::rngs::StdRng;
use rand::SeedableRng;

use trimcaching_modellib::ModelId;
use trimcaching_scenario::mobility::MobilityModel;
use trimcaching_scenario::{
    DemandEstimate, Eligibility, LatencyEvaluator, Placement, Scenario, ServerId, SnapshotDelta,
    UserId,
};
use trimcaching_wireless::geometry::{DeploymentArea, Point};

use crate::cache::ServerCache;
use crate::control::{plan_target_masked_on, reconcile, ControlConfig, Controller, ReplanReason};
use crate::error::RuntimeError;
use crate::event::{EventKind, EventQueue};
use crate::fanout::par_map;
use crate::faults::{FaultConfig, FaultKind, RecoveryMode};
use crate::metrics::{RequestOutcome, ServeMetrics};
use crate::persist::checkpoint::{MobilityState, RegionState, ServerState};
use crate::persist::journal::{recover_journal, JournalHeader, JournalWriter};
use crate::persist::{Checkpoint, PersistConfig, PersistError, ServedRecord};
use crate::policy::EvictionPolicy;
use crate::shard::ShardedServeEngine;
use crate::transfer::BackhaulLink;
use crate::workload::Workload;

/// What a cache fill puts on the cloud→edge wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillGranularity {
    /// Every fill downloads the full model artifact, even when shared
    /// blocks are already resident — parameter sharing is rewarded in
    /// storage but invisible on the backhaul. This is the compatibility
    /// baseline the determinism and `block_transfer` comparisons pin
    /// against.
    WholeModel,
    /// A fill downloads only the blocks absent at the server; blocks
    /// already on the wire for another fill are joined, not re-sent.
    Block,
}

/// Configuration of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Simulated duration in seconds.
    pub duration_s: f64,
    /// Per-user Poisson request rate in Hz.
    pub request_rate_hz: f64,
    /// Length of one hit-ratio metrics window in seconds.
    pub window_s: f64,
    /// Extra latency charged when a model must be fetched from the
    /// cloud before edge delivery, *on top of* the modelled backhaul
    /// transfer — the cloud-origin overhead (lookup, auth, first-byte
    /// RTT) that no link model captures.
    pub cloud_fetch_penalty_s: f64,
    /// Mobility slot length in seconds; `0` keeps users static.
    pub mobility_slot_s: f64,
    /// Side of the square deployment area users move within (only used
    /// when mobility is enabled).
    pub area_side_m: f64,
    /// What a cache fill moves over the backhaul: missing blocks only
    /// (the TrimCaching-native default) or the whole model artifact.
    pub granularity: FillGranularity,
    /// Nominal rate of each edge server's cloud-ingest backhaul link in
    /// bits per second (the paper's evaluation uses a 10 Gbps mesh).
    pub cloud_ingest_bps: f64,
    /// Whether in-flight transfers degrade a link's effective rate
    /// (processor sharing frozen at transfer start). When off, every
    /// transfer runs at the nominal rate regardless of load.
    pub congestion_aware: bool,
    /// Online re-placement control loop (`None` = static placement, the
    /// pre-control behaviour). When set, the engine runs a
    /// [`Controller`]: demand estimation from the served stream, drift
    /// detection over the windowed metrics, re-plans through the lazy
    /// greedy and staged reconciliation over the backhaul links.
    pub control: Option<ControlConfig>,
    /// RNG seed; identical seeds give identical runs.
    pub seed: u64,
    /// Deterministic fault injection (`None` = the fault-free horizon
    /// every pre-faults run assumed). When set, the engine replays the
    /// schedule's server/link transitions as ordinary events, fails
    /// requests over along the eligibility candidates, aborts and
    /// retries in-flight fills with seeded-jitter backoff, masks down
    /// servers out of re-planning and re-replicates lost blocks on
    /// recovery.
    pub faults: Option<FaultConfig>,
    /// Durable-run persistence (`None` = in-memory only). When set, the
    /// engine journals every served event, writes slot-boundary
    /// checkpoints of its full state, and can be resumed byte-identically
    /// via [`ServeEngine::resume`] or forked via [`ServeEngine::fork`].
    pub persist: Option<PersistConfig>,
}

impl ServeConfig {
    /// Ten simulated minutes of moderate per-user traffic with one-minute
    /// metric windows and static users.
    pub fn paper_defaults() -> Self {
        Self {
            duration_s: 600.0,
            request_rate_hz: 0.05,
            window_s: 60.0,
            cloud_fetch_penalty_s: 0.25,
            mobility_slot_s: 0.0,
            area_side_m: 1000.0,
            granularity: FillGranularity::Block,
            cloud_ingest_bps: 10.0e9,
            congestion_aware: true,
            control: None,
            seed: 2024,
            faults: None,
            persist: None,
        }
    }

    /// A tiny configuration for smoke tests.
    pub fn smoke() -> Self {
        Self {
            duration_s: 60.0,
            request_rate_hz: 0.2,
            window_s: 10.0,
            ..Self::paper_defaults()
        }
    }

    /// Sets the simulated duration.
    pub fn with_duration_s(mut self, duration_s: f64) -> Self {
        self.duration_s = duration_s;
        self
    }

    /// Sets the per-user request rate.
    pub fn with_request_rate_hz(mut self, rate_hz: f64) -> Self {
        self.request_rate_hz = rate_hz;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the fill granularity (block-level pipelines versus the
    /// whole-model compatibility baseline).
    pub fn with_granularity(mut self, granularity: FillGranularity) -> Self {
        self.granularity = granularity;
        self
    }

    /// Sets the nominal cloud-ingest backhaul rate per server.
    pub fn with_cloud_ingest_bps(mut self, rate_bps: f64) -> Self {
        self.cloud_ingest_bps = rate_bps;
        self
    }

    /// Enables or disables congestion feedback on the backhaul links.
    pub fn with_congestion_aware(mut self, congestion_aware: bool) -> Self {
        self.congestion_aware = congestion_aware;
        self
    }

    /// Enables the online re-placement controller.
    pub fn with_control(mut self, control: ControlConfig) -> Self {
        self.control = Some(control);
        self
    }

    /// Enables mobility with the given slot length (users re-derive the
    /// radio snapshot every slot, as the paper's Fig. 7 study does every
    /// 5 s).
    pub fn with_mobility_slot_s(mut self, slot_s: f64) -> Self {
        self.mobility_slot_s = slot_s;
        self
    }

    /// Enables deterministic fault injection: the schedule's server and
    /// link transitions fire as ordinary events on the deterministic
    /// queue, and the config's degradation knobs (failover, retry
    /// backoff, recovery mode) govern how the serve path degrades.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Enables durable-run persistence: an append-only journal of
    /// served events plus slot-boundary checkpoints in
    /// `persist.dir`, from which the run can be resumed or forked.
    pub fn with_persist(mut self, persist: PersistConfig) -> Self {
        self.persist = Some(persist);
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] naming the first invalid
    /// field.
    pub fn validate(&self) -> Result<(), RuntimeError> {
        let positive = [
            ("duration_s", self.duration_s),
            ("request_rate_hz", self.request_rate_hz),
            ("window_s", self.window_s),
            ("area_side_m", self.area_side_m),
            ("cloud_ingest_bps", self.cloud_ingest_bps),
        ];
        for (name, value) in positive {
            if !(value.is_finite() && value > 0.0) {
                return Err(RuntimeError::InvalidConfig {
                    reason: format!("{name} must be positive and finite, got {value}"),
                });
            }
        }
        for (name, value) in [
            ("cloud_fetch_penalty_s", self.cloud_fetch_penalty_s),
            ("mobility_slot_s", self.mobility_slot_s),
        ] {
            if !(value.is_finite() && value >= 0.0) {
                return Err(RuntimeError::InvalidConfig {
                    reason: format!("{name} must be non-negative and finite, got {value}"),
                });
            }
        }
        if let Some(control) = &self.control {
            control.validate()?;
        }
        if let Some(faults) = &self.faults {
            faults.validate()?;
        }
        if let Some(persist) = &self.persist {
            persist.validate()?;
        }
        Ok(())
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

/// Result of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Name of the eviction policy that ran.
    pub policy: String,
    /// The seed the run used.
    pub seed: u64,
    /// The fill granularity the run used.
    pub granularity: FillGranularity,
    /// All streaming metrics.
    pub metrics: ServeMetrics,
    /// Servable models cached per server when the run ended (ascending
    /// ids; fills still in flight at the horizon are excluded).
    pub final_caches: Vec<Vec<ModelId>>,
}

/// The classic serving engine: one region covering the whole
/// deployment. It is the `R = 1` constructor of [`ShardedServeEngine`]
/// and keeps no driving logic of its own, so a classic run and a
/// one-shard run are the same run.
pub struct ServeEngine<'a>(ShardedServeEngine<'a>);

impl<'a> ServeEngine<'a> {
    /// Prepares an engine over `scenario` with empty caches.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] for an invalid
    /// configuration and propagates scenario errors.
    pub fn new(
        scenario: &'a Scenario,
        policy: &'a dyn EvictionPolicy,
        config: ServeConfig,
    ) -> Result<Self, RuntimeError> {
        ShardedServeEngine::new(scenario, policy, config, 1).map(Self)
    }

    /// Replaces the request workload — e.g. with a piecewise
    /// non-stationary [`Workload`] whose popularity shifts at epoch
    /// boundaries (the demand drift the controller exists to chase).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] when the workload's user
    /// or model count disagrees with the scenario's.
    pub fn set_workload(&mut self, workload: Workload) -> Result<(), RuntimeError> {
        self.0.set_workload(workload)
    }

    /// Schedules an *oracle* reconciliation: at simulated time `at_s`
    /// the caches start converging towards `target` through the same
    /// staged fill/evict pipeline a controller re-plan uses. This is the
    /// upper-bound baseline of the `serve-adapt` study — the target was
    /// computed with knowledge the online controller cannot have, but
    /// the reconfiguration bytes and latency are paid all the same.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] for a non-finite or
    /// negative time (`-0.0` included) or a target whose dimensions
    /// disagree with the scenario.
    pub fn schedule_reconcile(&mut self, at_s: f64, target: Placement) -> Result<(), RuntimeError> {
        self.0.schedule_reconcile(at_s, target)
    }

    /// Warm-starts the caches from an offline placement (e.g. a
    /// TrimCaching Spec/Gen outcome): every `x_{m,i} = 1` entry is
    /// preloaded, skipping models that no longer fit.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] for a placement whose
    /// dimensions disagree with the scenario.
    pub fn warm_start(&mut self, placement: &Placement) -> Result<(), RuntimeError> {
        self.0.warm_start(placement)
    }

    /// Runs the engine to completion and returns the report.
    ///
    /// # Errors
    ///
    /// Propagates scenario errors (which indicate an internally
    /// inconsistent snapshot) and, for persistent runs, journal and
    /// checkpoint I/O failures.
    pub fn run(self) -> Result<ServeReport, RuntimeError> {
        self.0.run()
    }

    /// Runs the engine up to simulated time `stop_s` and then drops it —
    /// the durable-run analogue of the process being killed at `stop_s`.
    /// The journal is flushed and every checkpoint boundary at or before
    /// `stop_s` is on disk; continue with [`ServeEngine::resume`].
    ///
    /// # Errors
    ///
    /// Rejects a non-finite or negative stop time and propagates the
    /// same errors as [`ServeEngine::run`].
    pub fn run_until(self, stop_s: f64) -> Result<(), RuntimeError> {
        self.0.run_until(stop_s)
    }

    /// Resumes an interrupted durable run from the latest checkpoint
    /// and journal in `persist.dir`, exactly like
    /// [`ShardedServeEngine::resume`] (the shard count is read from the
    /// checkpoint).
    ///
    /// The journal is recovered leniently — a torn final record (crash
    /// mid-write) is truncated away — and every intact record beyond the
    /// checkpoint's journal offset is queued for verification: the
    /// resumed run must re-serve those requests *identically* before it
    /// appends anything new, so [`run`](ServeEngine::run) after resume
    /// produces a report and journal byte-identical to the uninterrupted
    /// run's.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, corrupt files, or a policy/seed mismatch
    /// between `policy`, the checkpoint and the journal header.
    pub fn resume(
        scenario: &'a Scenario,
        policy: &'a dyn EvictionPolicy,
        persist: PersistConfig,
    ) -> Result<Self, RuntimeError> {
        ShardedServeEngine::resume(scenario, policy, persist).map(Self)
    }

    /// Forks a checkpoint into a fresh *in-memory* engine — no journal,
    /// no further checkpoints — under any eviction policy, including one
    /// different from the original run's. Two forks of the same
    /// checkpoint share their entire past and diverge only through their
    /// policies: diffing their reports isolates the policy's effect on
    /// the deterministic future (the `fork-ab` study).
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, a corrupt checkpoint, or a checkpoint whose
    /// dimensions disagree with `scenario`.
    pub fn fork(
        scenario: &'a Scenario,
        policy: &'a dyn EvictionPolicy,
        checkpoint_path: &Path,
    ) -> Result<Self, RuntimeError> {
        let cp = Checkpoint::load(checkpoint_path)?;
        ShardedServeEngine::restore(scenario, policy, &cp, None).map(Self)
    }
}

/// The mutable per-region machinery threaded through the event loop:
/// the seeded RNG, the pending event queue and (when mobility is on) the
/// kinematic mobility model. Checkpoints capture it wholesale;
/// [`Region::restore`] rebuilds it.
pub(crate) struct RunState {
    pub(crate) rng: StdRng,
    pub(crate) queue: EventQueue,
    pub(crate) mobility: Option<MobilityModel>,
}

/// What every region of a run reads and only the coordinator writes: the
/// request workload, and — updated at mobility boundaries — the one
/// radio snapshot, each user's primary server, owner region and request
/// generation. Neither `Workload` nor `Scenario` has interior
/// mutability, so the regions share them by plain reference across the
/// worker pool.
///
/// The eligibility indicator does not depend on the placement, and a
/// request never reads it: [`Region::serve_request`] scores its class
/// straight from the radio state through
/// [`LatencyEvaluator::scored_candidates`]. Only a re-plan reads the
/// indicator, so it belongs to the planner. A mobility boundary
/// recomputes the snapshot's radio state only — coverage, shares and
/// rates, whole, in place ([`Scenario::update_radio_positions`]) —
/// which leaves the snapshot's stored indicator out of date as a whole,
/// and [`Shared::eligibility`] derives a fresh one for each solve once a
/// boundary has moved a user. Nothing about it is stored, so
/// checkpoints never hold it.
pub(crate) struct Shared<'a> {
    /// The run's one request workload; each region samples its own
    /// users from it.
    pub(crate) workload: Workload,
    /// The radio snapshot: borrowed from the caller until the first
    /// mobility boundary (or a restore) moves its users, owned from then
    /// on. An owned snapshot's stored eligibility is out of date.
    pub(crate) snapshot: Cow<'a, Scenario>,
    /// Per-user primary server (highest-rate covering server) under the
    /// snapshot; used to count handovers across mobility slots.
    pub(crate) primary: Vec<Option<usize>>,
    /// `owner[k]`: the region that owns user `k`'s request stream,
    /// kinematics and handover accounting.
    pub(crate) owner: Vec<usize>,
    /// `generation[k]`: bumped on every migration of user `k`. Only a
    /// `Request` event carrying the current generation is live.
    pub(crate) generation: Vec<u32>,
    /// Pre-scheduled oracle reconciliations: `(time, target placement)`
    /// pairs each region stages for its member servers through the same
    /// pipeline as controller re-plans.
    pub(crate) scheduled: Vec<(f64, Placement)>,
    /// `home[m]`: the region that simulates server `m` and the member
    /// slot it holds there — the one global → member index, derived from
    /// the strip partition and static for the run.
    pub(crate) home: Vec<Home>,
}

/// Where server `m`'s state lives: slot `slot` of region `region`'s
/// caches, links and down flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Home {
    pub(crate) region: usize,
    pub(crate) slot: usize,
}

/// Server `m`'s slot in `region` under the index `home`, or `None` when
/// another region simulates `m`.
pub(crate) fn member_slot(home: &[Home], region: usize, m: usize) -> Option<usize> {
    home.get(m)
        .filter(|home| home.region == region)
        .map(|home| home.slot)
}

impl Shared<'_> {
    /// Moves the snapshot's users to `positions` and recomputes its
    /// radio state (not its eligibility); the delta names the users
    /// whose rates could have changed.
    pub(crate) fn move_users(
        &mut self,
        positions: &[Point],
    ) -> Result<SnapshotDelta, RuntimeError> {
        Ok(self.snapshot.to_mut().update_radio_positions(positions)?)
    }

    /// The eligibility indicator a re-plan solves on: the snapshot's own
    /// while it is still the caller's untouched scenario, derived from
    /// scratch from the radio state once a mobility boundary or a
    /// restore has moved it.
    pub(crate) fn eligibility(&self) -> Result<Cow<'_, Eligibility>, RuntimeError> {
        Ok(match &self.snapshot {
            Cow::Borrowed(scenario) => Cow::Borrowed(scenario.eligibility()),
            Cow::Owned(scenario) => Cow::Owned(scenario.derive_eligibility()?),
        })
    }

    /// The re-plan target for `estimate` with the servers flagged in
    /// `down` masked out: [`plan_target_masked_on`] the snapshot and
    /// [`Shared::eligibility`].
    pub(crate) fn plan_target(
        &self,
        estimate: &DemandEstimate,
        down: &[bool],
    ) -> Result<Placement, RuntimeError> {
        plan_target_masked_on(&self.snapshot, &*self.eligibility()?, estimate, down)
    }
}

/// Why [`Region::drive`] stopped pumping events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum DriveStop {
    /// No pending event fires at or before the requested stop time.
    Horizon,
    /// A mobility boundary fired at the carried time. The region stepped
    /// its kinematics and scheduled the next slot; the snapshot update,
    /// handover recount and ownership migration are the coordinator's
    /// to merge before this queue drains any further.
    MobilityBoundary(f64),
}

/// Where [`Region::make_room`] takes its victims from.
#[derive(Clone, Copy)]
enum Victims<'p> {
    /// The eviction policy, which may also veto the fill.
    Policy,
    /// A reconciliation's eviction pool ([`reconcile::next_victim`]).
    Pool(&'p [ModelId]),
}

/// The journal of a durable run's region.
struct PersistState {
    writer: JournalWriter,
    /// Journal records beyond the checkpoint this run resumed from,
    /// paired with each record's end offset in the journal file. The
    /// resumed run must re-serve them identically — verified one by
    /// one — before it may append anything new.
    verify: VecDeque<(ServedRecord, u64)>,
    /// Journal offset up to which re-served records have been verified.
    /// Checkpoints written mid-verification record this position rather
    /// than the file length, so their journal suffix stays correct.
    verified_through: u64,
}

impl PersistState {
    /// The journal position a checkpoint taken now should record.
    fn journal_position(&self) -> u64 {
        if self.verify.is_empty() {
            self.writer.offset()
        } else {
            self.verified_through
        }
    }

    /// Accounts one served request: verified against the journal
    /// suffix while resuming, appended to the journal otherwise.
    fn note_served(&mut self, record: &ServedRecord) -> Result<(), PersistError> {
        match self.verify.pop_front() {
            Some((expected, end)) => {
                if expected != *record {
                    return Err(PersistError::Diverged {
                        time_s: record.time_s,
                        detail: format!(
                            "re-served request disagrees with the journal: \
                             journal has {expected:?}, replay produced {record:?}"
                        ),
                    });
                }
                self.verified_through = end;
                Ok(())
            }
            None => self.writer.append(record),
        }
    }
}

/// One region of a run: the servers of one strip (caches, backhaul
/// links, fault transitions, regional controller) and the request
/// streams of the users it owns, with its own RNG stream and journal.
/// Slot `j` of its per-server state is server `servers[j]`; events carry
/// global server ids, which [`Shared::home`] maps to slots. A region
/// reads the radio snapshot the coordinator shares with it and never
/// writes it. See the module docs for the service semantics.
pub(crate) struct Region<'a> {
    /// Region id — also the offset added to the run seed for this
    /// region's RNG stream and the index of its journal file.
    id: usize,
    /// The global ids of the servers this region simulates, ascending:
    /// its strip's servers. Static for the run.
    pub(crate) servers: Vec<usize>,
    scenario: &'a Scenario,
    policy: &'a dyn EvictionPolicy,
    config: ServeConfig,
    caches: Vec<ServerCache<'a>>,
    /// Per-server congestion-aware cloud-ingest links.
    links: Vec<BackhaulLink>,
    pub(crate) metrics: ServeMetrics,
    /// The online re-placement controller (present when
    /// [`ServeConfig::control`] is set).
    controller: Option<Controller>,
    /// The region's journal, present when [`ServeConfig::persist`] is
    /// set and the run has begun or been restored.
    persist: Option<PersistState>,
    /// Per-server down flags driven by the fault schedule (all `false`
    /// for fault-free runs — the serve path is shared).
    server_down: Vec<bool>,
    /// How many servers are currently down (degraded mode when > 0);
    /// kept as a counter so the per-request check is O(1).
    down_servers: usize,
    /// The most recent placement the caches were reconciled towards
    /// (warm start or re-plan) — the target recovered servers self-heal
    /// back to.
    last_target: Option<Placement>,
    /// Every re-plan's inputs and target, so tests can re-solve them on
    /// an eagerly updated snapshot.
    #[cfg(test)]
    pub(crate) replans: Vec<ReplanProbe>,
}

/// One controller re-plan as solved: the estimate, the server mask, the
/// user positions of the snapshot, whether it solved after a merge (the
/// snapshot was owned, so the eligibility was derived for the solve),
/// and the target.
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct ReplanProbe {
    pub(crate) estimate: DemandEstimate,
    pub(crate) mask: Vec<bool>,
    pub(crate) positions: Vec<Point>,
    pub(crate) after_merge: bool,
    pub(crate) target: Placement,
}

impl<'a> Region<'a> {
    /// Prepares region `id` over `scenario` with empty caches for
    /// `servers`, its strip's servers in ascending order. The coordinator
    /// has validated `config`.
    pub(crate) fn new(
        scenario: &'a Scenario,
        policy: &'a dyn EvictionPolicy,
        config: ServeConfig,
        id: usize,
        servers: Vec<usize>,
    ) -> Result<Self, RuntimeError> {
        let capacity = |m: usize| scenario.servers()[m].capacity_bytes();
        let caches = servers
            .iter()
            .map(|&m| ServerCache::new(scenario.library(), capacity(m)))
            .collect();
        let links = servers
            .iter()
            .map(|_| BackhaulLink::new(config.cloud_ingest_bps, config.congestion_aware))
            .collect::<Result<Vec<_>, _>>()?;
        let controller = config
            .control
            .map(|c| Controller::new(c, scenario.num_users(), scenario.num_models()))
            .transpose()?;
        Ok(Self {
            id,
            server_down: vec![false; servers.len()],
            servers,
            scenario,
            policy,
            metrics: ServeMetrics::new(config.window_s),
            config,
            caches,
            links,
            controller,
            persist: None,
            down_servers: 0,
            last_target: None,
            #[cfg(test)]
            replans: Vec::new(),
        })
    }

    /// The lengths of the per-server state: caches, links and down
    /// flags.
    #[cfg(test)]
    pub(crate) fn slot_counts(&self) -> [usize; 3] {
        [self.caches.len(), self.links.len(), self.server_down.len()]
    }

    /// Server `m`'s member slot, or a typed error when another region
    /// simulates `m`.
    fn slot(&self, shared: &Shared<'_>, m: usize) -> Result<usize, RuntimeError> {
        member_slot(&shared.home, self.id, m).ok_or_else(|| RuntimeError::Internal {
            reason: format!("region {} does not simulate server {m}", self.id),
        })
    }

    /// Warm-starts the member caches from an offline placement: every
    /// `x_{m,i} = 1` entry of a member server is preloaded, skipping
    /// models that no longer fit (the rest of the placement is other
    /// regions' warm start).
    pub(crate) fn warm_start(&mut self, placement: &Placement) -> Result<(), RuntimeError> {
        for (cache, &m) in self.caches.iter_mut().zip(&self.servers) {
            for model in placement.models_on(ServerId(m))? {
                if cache.fits(model)? {
                    cache.preload(model)?;
                }
            }
        }
        // The warm-start placement is the reference recovered servers
        // self-heal towards until a re-plan supersedes it.
        self.last_target = Some(placement.clone());
        Ok(())
    }

    /// Builds the initial run state — the seeded RNG, the primed event
    /// queue and the mobility model (the RNG draw order is part of the
    /// determinism contract) — and opens the journal when persistence
    /// is configured.
    pub(crate) fn begin(&mut self, shared: &Shared<'_>) -> Result<RunState, RuntimeError> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut queue = EventQueue::new();
        let mobility = if self.config.mobility_slot_s > 0.0 {
            let area = DeploymentArea::new(self.config.area_side_m)
                .map_err(trimcaching_scenario::ScenarioError::from)?;
            let positions: Vec<_> = self.scenario.users().iter().map(|u| u.position()).collect();
            queue.push(self.config.mobility_slot_s, EventKind::MobilitySlot);
            Some(MobilityModel::paper_mix(&positions, area, &mut rng))
        } else {
            None
        };

        // Every region draws the full per-user interarrival sequence (one
        // draw per user) but schedules requests only for the users it
        // owns — identical draw counts for every region count.
        for (k, &owner) in shared.owner.iter().enumerate() {
            let t = shared.workload.next_interarrival_s(&mut rng);
            if owner == self.id {
                let (user, generation) = (UserId(k), shared.generation[k]);
                queue.push(t, EventKind::Request { user, generation });
            }
        }
        if let Some(controller) = &self.controller {
            queue.push(controller.config().tick_s, EventKind::ControlTick);
        }
        for (index, (at_s, _)) in shared.scheduled.iter().enumerate() {
            queue.push(*at_s, EventKind::ScheduledReconcile { index });
        }
        if let Some(faults) = &self.config.faults {
            for (index, spec) in faults.timeline.iter().enumerate() {
                // A region replays only the transitions of its member
                // servers; the rest belong to other regions' timelines.
                if member_slot(&shared.home, self.id, spec.kind.server()).is_some() {
                    queue.push(spec.at_s, EventKind::FaultTransition { index });
                }
            }
        }

        if let Some(pc) = &self.config.persist {
            std::fs::create_dir_all(&pc.dir).map_err(|e| PersistError::io(&pc.dir, e))?;
            let header = JournalHeader {
                seed: self.config.seed,
                policy: self.policy.name().to_string(),
                window_s: self.config.window_s,
                duration_s: self.config.duration_s,
                granularity: self.config.granularity,
            };
            self.persist = Some(PersistState {
                writer: JournalWriter::create(&pc.journal_shard_path(self.id), &header)?,
                verify: VecDeque::new(),
                verified_through: 0,
            });
        }

        Ok(RunState {
            rng,
            queue,
            mobility,
        })
    }

    /// Pumps the event loop until no pending event fires at or before
    /// `stop_s`, or a mobility boundary hands control back to the
    /// coordinator. An event past the horizon is never popped and
    /// dropped ([`EventQueue::pop_due`]), so a stopped run's queue is
    /// byte-identical to the same moment of an uninterrupted run.
    pub(crate) fn drive(
        &mut self,
        state: &mut RunState,
        stop_s: f64,
        shared: &Shared<'_>,
    ) -> Result<DriveStop, RuntimeError> {
        // The snapshot changes only at a mobility boundary, which ends
        // this call: one evaluator serves every request of the drive.
        let current = &*shared.snapshot;
        let evaluator = LatencyEvaluator::new(
            current.library(),
            current.demand(),
            current.coverage(),
            current.backhaul(),
            current.rates(),
        )?;
        loop {
            let Some(event) = state.queue.pop_due(stop_s) else {
                return Ok(DriveStop::Horizon);
            };
            match event.kind {
                EventKind::Request { user, generation } => {
                    // A user who migrated leaves the old chain's pending
                    // request behind as a tombstone — in the old owner's
                    // queue, where it stays stale even if the user later
                    // migrates back; skip it *before* any RNG draw so the
                    // region's stream is exactly what its owned users
                    // produce.
                    if shared.generation[user.index()] != generation {
                        continue;
                    }
                    let (now_s, home) = (event.time_s, &shared.home);
                    let model = shared.workload.draw_model(user, now_s, &mut state.rng);
                    self.serve_request(&evaluator, home, user, model, now_s, &mut state.queue)?;
                    let gap = shared.workload.next_interarrival_s(&mut state.rng);
                    state
                        .queue
                        .push(now_s + gap, EventKind::Request { user, generation });
                }
                EventKind::TransferComplete { server, model } => {
                    // Fills aborted by a server failure leave their
                    // completion events behind (the queue cannot
                    // retract). A live fill's pending ETA is exactly the
                    // time its completion event was pushed at, so an
                    // event that no longer matches is a stale tombstone
                    // and is ignored.
                    let j = self.slot(shared, server)?;
                    let cache = &mut self.caches[j];
                    if cache.is_pending(model) && cache.pending_eta_s(model) == event.time_s {
                        cache.complete_fill(model)?;
                        self.metrics.fills_completed += 1;
                    }
                }
                EventKind::ControlTick => {
                    self.control_tick(shared, event.time_s, &mut state.queue)?;
                }
                EventKind::ScheduledReconcile { index } => {
                    let Some((_, target)) = shared.scheduled.get(index) else {
                        return Err(RuntimeError::Internal {
                            reason: format!("no scheduled reconciliation {index}"),
                        });
                    };
                    self.reconcile_to_target(target, event.time_s, &mut state.queue)?;
                }
                EventKind::FaultTransition { index } => {
                    self.apply_fault(
                        index,
                        shared,
                        event.time_s,
                        &mut state.rng,
                        &mut state.queue,
                    )?;
                }
                EventKind::RetryFill {
                    server,
                    model,
                    attempt,
                } => {
                    self.retry_fill(
                        self.slot(shared, server)?,
                        model,
                        attempt,
                        event.time_s,
                        &mut state.rng,
                        &mut state.queue,
                    )?;
                }
                EventKind::MobilitySlot => {
                    let Some(mobility) = state.mobility.as_mut() else {
                        return Err(RuntimeError::Internal {
                            reason: "a mobility slot fired but mobility is off".into(),
                        });
                    };
                    mobility.step(&mut state.rng);
                    state.queue.push(
                        event.time_s + self.config.mobility_slot_s,
                        EventKind::MobilitySlot,
                    );
                    // Users owned elsewhere have their fresh positions in
                    // *their* owners' kinematics: hand control back so the
                    // coordinator can assemble the global position vector
                    // and update the one shared snapshot.
                    return Ok(DriveStop::MobilityBoundary(event.time_s));
                }
            }
        }
    }

    /// Flushes the journal and returns the position a checkpoint taken
    /// now records (0 for in-memory runs).
    pub(crate) fn sync_journal(&mut self) -> Result<u64, RuntimeError> {
        match self.persist.as_mut() {
            Some(p) => {
                p.writer.flush()?;
                Ok(p.journal_position())
            }
            None => Ok(0),
        }
    }

    /// Flushes the journal and captures what this region owns at a
    /// boundary: RNG words, pending events, metrics, controller,
    /// kinematics, last target and journal position.
    pub(crate) fn capture(&mut self, state: &RunState) -> Result<RegionState, RuntimeError> {
        let journal_offset = self.sync_journal()?;
        let (events, next_seq) = state.queue.snapshot();
        Ok(RegionState {
            rng: state.rng.state(),
            events,
            next_seq,
            metrics: self.metrics.clone(),
            controller: self.controller.as_ref().map(|c| c.snapshot()),
            mobility: state.mobility.as_ref().map(|m| MobilityState {
                slot_seconds: m.slot_seconds(),
                users: m.users().to_vec(),
            }),
            last_target: self.last_target.clone(),
            journal_offset,
        })
    }

    /// The state of the server in member slot `j`.
    pub(crate) fn server_state(&self, j: usize) -> ServerState {
        ServerState {
            cache: self.caches[j].snapshot(),
            inflight: self.links[j].inflight_snapshot(),
            down: self.server_down[j],
            degrade: self.links[j].degrade_factor(),
        }
    }

    /// Closes the region at `horizon`: checks that a resumed run
    /// re-served its whole journal suffix, flushes the journal and
    /// closes the metrics windows. Returns the region's metrics and the
    /// servable models of each member server, in slot order.
    pub(crate) fn finish(
        mut self,
        horizon: f64,
    ) -> Result<(ServeMetrics, Vec<Vec<ModelId>>), RuntimeError> {
        if let Some(p) = &self.persist {
            if !p.verify.is_empty() {
                return Err(PersistError::Diverged {
                    time_s: horizon,
                    detail: format!(
                        "{} journaled records were never re-served by the resumed run",
                        p.verify.len()
                    ),
                }
                .into());
            }
        }
        self.sync_journal()?;
        self.metrics.finish(horizon);
        let caches = self.caches.iter().map(ServerCache::cached_models).collect();
        Ok((self.metrics, caches))
    }

    /// Overwrites every mutable layer of this fresh region with its
    /// checkpointed state — `servers` holds every server's state by
    /// global id, of which the region restores its members — and returns
    /// the run state (RNG words, event queue, mobility kinematics) to
    /// continue from.
    /// With `persist` set the region's journal is recovered and its
    /// suffix beyond the checkpoint queued for verification (resume);
    /// without it the region runs in memory under any policy (fork).
    pub(crate) fn restore(
        &mut self,
        policy: &str,
        servers: &[ServerState],
        state: &RegionState,
        persist: Option<&PersistConfig>,
    ) -> Result<RunState, RuntimeError> {
        if let Some(persist) = persist {
            self.persist = Some(self.recover_journal(policy, state.journal_offset, persist)?);
        }
        for (j, &m) in self.servers.iter().enumerate() {
            let server = &servers[m];
            self.caches[j].restore(server.cache.clone())?;
            self.links[j].restore_inflight(server.inflight.clone());
            self.links[j].set_degrade_factor(server.degrade);
            self.server_down[j] = server.down;
            self.down_servers += usize::from(server.down);
        }
        self.metrics = state.metrics.clone();
        self.controller = state.controller.clone().map(Controller::restore);
        self.last_target = state.last_target.clone();
        let mobility = match &state.mobility {
            Some(m) => Some(MobilityModel::new(
                m.users.clone(),
                DeploymentArea::new(self.config.area_side_m)
                    .map_err(trimcaching_scenario::ScenarioError::from)?,
                m.slot_seconds,
            )),
            None => None,
        };
        Ok(RunState {
            rng: StdRng::from_state(state.rng),
            queue: EventQueue::restore(state.events.clone(), state.next_seq),
            mobility,
        })
    }

    /// Checks a checkpoint's policy against this region's and its journal
    /// against the region seed, and reopens the journal with every record
    /// beyond `journal_offset` queued for verification.
    fn recover_journal(
        &self,
        policy: &str,
        journal_offset: u64,
        persist: &PersistConfig,
    ) -> Result<PersistState, RuntimeError> {
        if policy != self.policy.name() {
            return Err(PersistError::Mismatch {
                reason: format!(
                    "checkpoint was taken under policy '{policy}' but resume was asked to run '{}'",
                    self.policy.name()
                ),
            }
            .into());
        }
        let journal_path = persist.journal_shard_path(self.id);
        let recovered = recover_journal(&journal_path)?;
        let seed = self.config.seed;
        if recovered.header.seed != seed || recovered.header.policy != policy {
            return Err(PersistError::Mismatch {
                reason: format!(
                    "journal belongs to seed {} / policy '{}' but the checkpoint is seed {seed} / policy '{policy}'",
                    recovered.header.seed,
                    recovered.header.policy,
                ),
            }
            .into());
        }
        if journal_offset > recovered.valid_len {
            return Err(PersistError::Corrupt {
                context: format!(
                    "checkpoint refers to journal offset {journal_offset} but only {} valid bytes exist",
                    recovered.valid_len
                ),
            }
            .into());
        }
        let verify = recovered
            .records
            .iter()
            .copied()
            .zip(recovered.record_ends.iter().copied())
            .filter(|&(_, end)| end > journal_offset)
            .collect();
        // Reopening truncates any torn tail before appends continue.
        Ok(PersistState {
            writer: JournalWriter::reopen(&journal_path, recovered.valid_len)?,
            verify,
            verified_through: journal_offset,
        })
    }

    /// Serves one request under the current snapshot; `evaluator` is
    /// over that snapshot and `home` is [`Shared::home`].
    fn serve_request(
        &mut self,
        evaluator: &LatencyEvaluator<'_>,
        home: &[Home],
        user: UserId,
        model: ModelId,
        now_s: f64,
        queue: &mut EventQueue,
    ) -> Result<(), RuntimeError> {
        // Lowest-latency eligible server overall, and among caches
        // holding the model — both fault-obliviously (what a static
        // client would target) and over up servers only (what failover
        // can actually reach). One kernel pass scores only the candidate
        // servers of the request class — at city scale a handful
        // instead of all M — from the snapshot's radio state, so the
        // stored eligibility a mobility boundary left out of date is
        // never read. For fault-free runs the masks never diverge and
        // the path reduces to the original selection. Each best is kept
        // as `(latency, member slot)`.
        let mut best_any: Option<(f64, usize)> = None;
        let mut best_hit: Option<(f64, usize)> = None;
        let mut best_up_any: Option<(f64, usize)> = None;
        let mut best_up_hit: Option<(f64, usize)> = None;
        let (id, caches, server_down) = (self.id, &self.caches, &self.server_down);
        evaluator.scored_candidates(user, model, |m, latency| {
            // Candidates outside this region are other regions'
            // capacity — invisible here, like the planner mask.
            let Some(j) = member_slot(home, id, m) else {
                return;
            };
            let holds = caches[j].contains(model);
            if best_any.is_none_or(|(best, _)| latency < best) {
                best_any = Some((latency, j));
            }
            if holds && best_hit.is_none_or(|(best, _)| latency < best) {
                best_hit = Some((latency, j));
            }
            if !server_down[j] {
                if best_up_any.is_none_or(|(best, _)| latency < best) {
                    best_up_any = Some((latency, j));
                }
                if holds && best_up_hit.is_none_or(|(best, _)| latency < best) {
                    best_up_hit = Some((latency, j));
                }
            }
        })?;

        // The server a fault-oblivious client would target: the serving
        // decision of the no-fault engine.
        let oblivious_target = best_hit.or(best_any).map(|(_, j)| j);
        let failover = self.config.faults.as_ref().is_some_and(|f| f.failover);
        let (chosen_hit, chosen_any, failed) = if failover {
            // Candidates exist but every one of them is down: the
            // request fails. Otherwise serve from the best *up* server.
            let failed = best_up_any.is_none() && best_any.is_some();
            (best_up_hit, best_up_any, failed)
        } else {
            // Static client: if the fault-oblivious target is down, the
            // request simply fails — no retry along the candidate list.
            match oblivious_target {
                Some(j) if self.server_down[j] => (None, None, true),
                _ => (best_hit, best_any, false),
            }
        };
        if failed {
            self.metrics.requests_failed += 1;
        } else if failover && chosen_any.is_some() {
            if let Some(j) = oblivious_target {
                if self.server_down[j] {
                    self.metrics.requests_failed_over += 1;
                }
            }
        }

        let (outcome, recorded_latency, block_hits, block_requests) = match (chosen_hit, chosen_any)
        {
            (Some((latency, j)), _) => {
                self.caches[j].record_access(model, now_s);
                let (arrived, needed) = self.count_block_residency(j, model)?;
                (RequestOutcome::Hit, Some(latency), arrived, needed)
            }
            (None, Some((latency, j))) => {
                self.caches[j].record_access(model, now_s);
                let (arrived, needed) = self.count_block_residency(j, model)?;
                // The model must travel from the cloud to the server
                // before edge delivery: the extra wait is the fill (or
                // transient fetch) pipeline through the congestion-aware
                // backhaul link, not a closed-form constant.
                let wait_s = self.fill_or_fetch(j, model, now_s, queue)?;
                let total = latency + wait_s + self.config.cloud_fetch_penalty_s;
                (RequestOutcome::MissServed, Some(total), arrived, needed)
            }
            (None, None) => (RequestOutcome::Rejected, None, 0, 0),
        };
        self.metrics.record(now_s, outcome, recorded_latency);
        if self.down_servers > 0 {
            // Degraded mode: at least one server is down — track the
            // served tail separately so the failover path's latency
            // cost is visible.
            if let Some(latency) = recorded_latency {
                self.metrics.latency_degraded.record(latency);
            }
        }
        if let Some(p) = self.persist.as_mut() {
            p.note_served(&ServedRecord {
                time_s: now_s,
                user: user.0 as u32,
                model: model.0 as u32,
                outcome,
                latency_bits: recorded_latency.map(f64::to_bits),
                block_hits,
                block_requests,
            })?;
        }
        if let Some(controller) = self.controller.as_mut() {
            // Every request is demand evidence — rejections included.
            controller.on_request(user, model);
        }
        Ok(())
    }

    /// One control tick: roll the estimator epoch, feed the drift
    /// detector, and — when drift or the epoch timer fired — solve a
    /// re-plan over the estimated demand and stage it through the
    /// reconciler. Always schedules the next tick.
    fn control_tick(
        &mut self,
        shared: &Shared<'_>,
        now_s: f64,
        queue: &mut EventQueue,
    ) -> Result<(), RuntimeError> {
        // Ticks are only scheduled when control is on; if the controller
        // is somehow gone, dropping the tick chain is the safe recovery.
        let Some(controller) = self.controller.as_mut() else {
            return Ok(());
        };
        let tick_s = controller.config().tick_s;
        let decision = controller.tick(now_s, &self.metrics);
        let estimate = if decision.replan.is_some() {
            Some(controller.estimate()?)
        } else {
            None
        };
        self.metrics.control_ticks += 1;
        if let Some(after_s) = decision.recovered_after_s {
            self.metrics.recoveries += 1;
            self.metrics.recovery_seconds += after_s;
        }
        if let (Some(reason), Some(estimate)) = (decision.replan, estimate) {
            // Plan against the *current* snapshot (mobility included,
            // eligibility derived fresh for the solve) and the demand the
            // controller actually observed — with down servers masked
            // out of the eligibility view, so the planner never spends
            // budget on capacity that cannot serve.
            // Non-member servers are masked the same way: they are
            // capacity some other region's controller plans.
            let mut mask = vec![true; self.scenario.num_servers()];
            for (&m, &down) in self.servers.iter().zip(&self.server_down) {
                mask[m] = down;
            }
            let target = shared.plan_target(&estimate, &mask)?;
            #[cfg(test)]
            self.replans.push(ReplanProbe {
                estimate: estimate.clone(),
                mask: mask.clone(),
                positions: shared
                    .snapshot
                    .users()
                    .iter()
                    .map(|u| u.position())
                    .collect(),
                after_merge: matches!(shared.snapshot, Cow::Owned(_)),
                target: target.clone(),
            });
            if reason == ReplanReason::Drift {
                self.metrics.replans_drift += 1;
            }
            self.reconcile_to_target(&target, now_s, queue)?;
        }
        queue.push(now_s + tick_s, EventKind::ControlTick);
        Ok(())
    }

    /// One re-plan, controller or scheduled: stages `target` on every
    /// member server that is up, through [`Region::stage_server`], and
    /// tells the controller. A down server cannot receive fills; it
    /// converges on recovery through the self-healing pass instead.
    fn reconcile_to_target(
        &mut self,
        target: &Placement,
        now_s: f64,
        queue: &mut EventQueue,
    ) -> Result<(), RuntimeError> {
        self.metrics.replans_triggered += 1;
        for j in 0..self.servers.len() {
            if !self.server_down[j] {
                self.stage_server(j, target, now_s, queue)?;
            }
        }
        self.last_target = Some(target.clone());
        if let Some(controller) = self.controller.as_mut() {
            controller.note_replan(now_s);
        }
        Ok(())
    }

    /// Stages the delta between `target` and the live cache of member
    /// slot `j` ([`reconcile::diff`]): missing target models become
    /// ordinary backhaul fills (reserving capacity, pinning shared
    /// blocks, completing via [`EventKind::TransferComplete`]); displaced
    /// models are evicted lazily, coldest-first, only when a staged fill
    /// needs the room. The traffic is accounted like demand-miss traffic,
    /// plus the `reconcile_*` metrics. It touches only cache and link
    /// `j`, so a re-plan stages each up member and a
    /// [`FaultKind::ServerUp`] self-heal stages the recovered one alone.
    fn stage_server(
        &mut self,
        j: usize,
        target: &Placement,
        now_s: f64,
        queue: &mut EventQueue,
    ) -> Result<(), RuntimeError> {
        let delta = reconcile::diff(target, ServerId(self.servers[j]), &self.caches[j])?;
        for &model in &delta.fills {
            // When the pool runs dry (e.g. pinned by pending fills) the
            // fill is skipped: approach the target, never force it.
            if self.make_room(j, model, Victims::Pool(&delta.eviction_pool))? {
                // Same staged pipeline as a demand-miss fill.
                let (_, wire_bytes) = self.start_fill_pipeline(j, model, now_s, queue)?;
                self.metrics.reconcile_fills_started += 1;
                self.metrics.reconcile_bytes_moved += wire_bytes;
            }
        }
        Ok(())
    }

    /// Applies one fault-schedule transition. Transitions are
    /// idempotent — a `ServerDown` for a server already down (or a
    /// `ServerUp` for one already up) is a no-op, so overlapping
    /// schedule entries cannot corrupt the mask.
    fn apply_fault(
        &mut self,
        index: usize,
        shared: &Shared<'_>,
        now_s: f64,
        rng: &mut StdRng,
        queue: &mut EventQueue,
    ) -> Result<(), RuntimeError> {
        let (spec, recovery) = match self.config.faults.as_ref() {
            Some(fc) => match fc.timeline.get(index) {
                Some(spec) => (*spec, fc.recovery),
                None => {
                    return Err(RuntimeError::Internal {
                        reason: format!(
                            "fault event {index} is outside the schedule of {} entries",
                            fc.timeline.len()
                        ),
                    });
                }
            },
            None => return Ok(()),
        };
        let j = self.slot(shared, spec.kind.server())?;
        match spec.kind {
            FaultKind::ServerDown { server } => {
                if self.server_down[j] {
                    return Ok(());
                }
                self.server_down[j] = true;
                self.down_servers += 1;
                self.metrics.faults_injected += 1;
                // The server died mid-transfer: everything on its link
                // is lost and every pending fill is unwound, then
                // re-queued with capped seeded-jitter backoff (ascending
                // model order keeps the jitter draws deterministic).
                let aborted = self.caches[j].pending_models();
                self.links[j].clear_inflight();
                for model in aborted {
                    self.caches[j].abort_fill(model)?;
                    self.metrics.fills_aborted += 1;
                    let delay = self.retry_delay(1, rng);
                    queue.push(
                        now_s + delay,
                        EventKind::RetryFill {
                            server,
                            model,
                            attempt: 1,
                        },
                    );
                }
            }
            FaultKind::ServerUp { .. } => {
                if !self.server_down[j] {
                    return Ok(());
                }
                self.server_down[j] = false;
                self.down_servers -= 1;
                self.metrics.faults_recovered += 1;
                self.apply_recovery_loss(j, recovery)?;
                // Self-heal: re-replicate what the recovered server
                // should hold (per the last reconciliation target) as
                // ordinary staged fills over its backhaul link.
                if let Some(target) = self.last_target.clone() {
                    self.stage_server(j, &target, now_s, queue)?;
                }
            }
            FaultKind::LinkDegraded { factor, .. } => {
                self.metrics.faults_injected += 1;
                self.links[j].set_degrade_factor(factor);
            }
            FaultKind::LinkRestored { .. } => {
                self.metrics.faults_recovered += 1;
                self.links[j].set_degrade_factor(1.0);
            }
        }
        Ok(())
    }

    /// The seeded-jitter backoff delay before retry `attempt`.
    fn retry_delay(&self, attempt: u32, rng: &mut StdRng) -> f64 {
        use rand::Rng;
        match self.config.faults.as_ref() {
            Some(fc) => fc.retry_delay_s(attempt, rng.gen_range(0.0..1.0)),
            None => 0.0,
        }
    }

    /// Applies the configured cache-survival semantics when the server in
    /// member slot `j` comes back up. Partial recovery keeps the most
    /// recently used fraction (ties broken by ascending model id), so the
    /// loss is a pure function of cache state — no RNG draw.
    fn apply_recovery_loss(
        &mut self,
        j: usize,
        recovery: RecoveryMode,
    ) -> Result<(), RuntimeError> {
        let cache = &mut self.caches[j];
        let lost: Vec<ModelId> = match recovery {
            RecoveryMode::Intact => Vec::new(),
            RecoveryMode::Cold => cache.cached_models(),
            RecoveryMode::Partial { keep_fraction } => {
                let mut ranked = cache.cached_models();
                ranked.sort_by(|a, b| {
                    cache
                        .last_access_s(*b)
                        .total_cmp(&cache.last_access_s(*a))
                        .then_with(|| a.index().cmp(&b.index()))
                });
                let keep = ((ranked.len() as f64) * keep_fraction).floor() as usize;
                ranked.split_off(keep)
            }
        };
        for model in lost {
            cache.evict(model)?;
            self.metrics.evictions += 1;
            self.metrics.models_lost += 1;
        }
        Ok(())
    }

    /// One retry of a fill aborted by a failure at the server in member
    /// slot `j`: while the server is still down the retry re-arms with
    /// the next backoff step (until the attempt cap); once it is up the
    /// fill goes back through the ordinary admission path — the policy
    /// may well decline a model whose demand has moved on.
    fn retry_fill(
        &mut self,
        j: usize,
        model: ModelId,
        attempt: u32,
        now_s: f64,
        rng: &mut StdRng,
        queue: &mut EventQueue,
    ) -> Result<(), RuntimeError> {
        let Some(fc) = self.config.faults.as_ref() else {
            return Ok(());
        };
        let max_retries = fc.max_fill_retries;
        self.metrics.fill_retries += 1;
        if self.server_down[j] {
            if attempt < max_retries {
                let delay = self.retry_delay(attempt + 1, rng);
                queue.push(
                    now_s + delay,
                    EventKind::RetryFill {
                        server: self.servers[j],
                        model,
                        attempt: attempt + 1,
                    },
                );
            }
            return Ok(());
        }
        if self.caches[j].contains(model) || self.caches[j].is_pending(model) {
            return Ok(());
        }
        if self.make_room(j, model, Victims::Policy)? {
            self.start_fill_pipeline(j, model, now_s, queue)?;
        }
        Ok(())
    }

    /// The standalone size of `model` in bytes.
    fn model_bytes(&self, model: ModelId) -> Result<u64, RuntimeError> {
        let bytes = self.scenario.library().model_size_bytes(model);
        Ok(bytes.map_err(trimcaching_scenario::ScenarioError::from)?)
    }

    /// Makes room for `model` in member slot `j`, for any fill, and says
    /// whether it now fits. A model larger than the whole cache never
    /// fits, so that bails out before any eviction; the policy may veto
    /// next ([`EvictionPolicy::admits`]); then `victims` are evicted until
    /// the model fits or the source runs dry. A pool eviction counts in
    /// `reconcile_evictions` as well as `evictions`.
    fn make_room(
        &mut self,
        j: usize,
        model: ModelId,
        victims: Victims<'_>,
    ) -> Result<bool, RuntimeError> {
        let standalone_bytes = self.model_bytes(model)?;
        let cache = &mut self.caches[j];
        if standalone_bytes > cache.capacity_bytes() {
            return Ok(false);
        }
        if matches!(victims, Victims::Policy) && !self.policy.admits(cache.view(), model) {
            return Ok(false);
        }
        while !cache.fits(model)? {
            let victim = match victims {
                Victims::Policy => self.policy.victim(cache.view(), model),
                Victims::Pool(pool) => reconcile::next_victim(&cache.view(), pool),
            };
            let Some(victim) = victim else {
                return Ok(false);
            };
            cache.evict(victim)?;
            self.metrics.evictions += 1;
            if let Victims::Pool(_) = victims {
                self.metrics.reconcile_evictions += 1;
            }
        }
        Ok(true)
    }

    /// Adds one served request's block residency at member slot `j` to
    /// the block hit-ratio counters and returns `(arrived, needed)` so
    /// the journal can carry the same numbers.
    fn count_block_residency(
        &mut self,
        j: usize,
        model: ModelId,
    ) -> Result<(u32, u32), RuntimeError> {
        let (arrived, total) = self.caches[j].arrived_blocks(model)?;
        self.metrics.block_hits += arrived as u64;
        self.metrics.block_requests += total as u64;
        Ok((arrived as u32, total as u32))
    }

    /// Brings `model` to member slot `j` on a miss and returns the extra
    /// wait in seconds until the model is available there.
    ///
    /// All storage decisions — the oversize bail-out, policy admission,
    /// policy-driven eviction and the capacity reservation of the fill —
    /// go through the one [`StorageTracker`]-backed path in
    /// [`ServerCache`], for both fill granularities:
    ///
    /// 1. a fill already in flight is *joined* (no new bytes move);
    /// 2. an admitted fill evicts victims until the (re-planned)
    ///    marginal bytes fit, reserves them, transfers the wire bytes of
    ///    the configured granularity and schedules its
    ///    transfer-complete event;
    /// 3. otherwise a transient fetch moves the bytes to the server for
    ///    this request only, caching nothing.
    ///
    /// [`StorageTracker`]: trimcaching_scenario::StorageTracker
    fn fill_or_fetch(
        &mut self,
        j: usize,
        model: ModelId,
        now_s: f64,
        queue: &mut EventQueue,
    ) -> Result<f64, RuntimeError> {
        let cache = &self.caches[j];
        if cache.is_pending(model) {
            // Join the in-flight fill: every byte is already on the wire.
            return Ok((cache.pending_eta_s(model) - now_s).max(0.0));
        }
        if self.make_room(j, model, Victims::Policy)? {
            let (eta_s, _) = self.start_fill_pipeline(j, model, now_s, queue)?;
            return Ok((eta_s - now_s).max(0.0));
        }
        // Transient fetch: the bytes still cross the backhaul for this
        // request, but nothing is reserved or cached. In block mode,
        // blocks already on the wire for a pending fill are waited for,
        // not re-sent; a whole-model fetch carries everything itself.
        let plan = self.caches[j].fill_plan(model)?;
        let (wire_bytes, join_eta_s) = match self.config.granularity {
            FillGranularity::WholeModel => (self.model_bytes(model)?, f64::NEG_INFINITY),
            FillGranularity::Block => (plan.missing_bytes, plan.join_eta_s),
        };
        let finish_s = self.begin_transfer(j, now_s, wire_bytes);
        Ok((finish_s.max(join_eta_s) - now_s).max(0.0))
    }

    /// Starts the staged fill pipeline for `model` at member slot `j`
    /// (capacity must already fit): plans the fill **after** any
    /// eviction — freed shared blocks must be re-downloaded, so the
    /// plan can only have grown — moves the configured granularity's
    /// wire bytes over the backhaul link, reserves storage (pinning
    /// shared blocks) and schedules the transfer-complete event.
    /// Demand-miss fills and reconciliation fills share this one path,
    /// so their byte accounting can never diverge. Returns
    /// `(completion_eta_s, wire_bytes)`.
    fn start_fill_pipeline(
        &mut self,
        j: usize,
        model: ModelId,
        now_s: f64,
        queue: &mut EventQueue,
    ) -> Result<(f64, u64), RuntimeError> {
        let plan = self.caches[j].fill_plan(model)?;
        let join_inflight = self.config.granularity == FillGranularity::Block;
        let wire_bytes = match self.config.granularity {
            FillGranularity::WholeModel => self.model_bytes(model)?,
            FillGranularity::Block => plan.missing_bytes,
        };
        let finish_s = self.begin_transfer(j, now_s, wire_bytes);
        let (eta_s, reserved) = self.caches[j].start_fill(model, finish_s, join_inflight)?;
        self.metrics.bytes_downloaded += reserved;
        self.metrics.insertions += 1;
        let server = self.servers[j];
        queue.push(eta_s, EventKind::TransferComplete { server, model });
        Ok((eta_s, wire_bytes))
    }

    /// Starts a backhaul transfer of `bytes` to member slot `j` (a no-op
    /// returning `now_s` for zero bytes) and folds the link statistics
    /// into the run metrics.
    fn begin_transfer(&mut self, j: usize, now_s: f64, bytes: u64) -> f64 {
        if bytes == 0 {
            return now_s;
        }
        let ticket = self.links[j].begin_transfer(now_s, bytes);
        self.metrics.backhaul_bytes_moved += bytes;
        self.metrics.transfers_started += 1;
        self.metrics.transfer_seconds += ticket.duration_s;
        self.metrics.transfer_queue_depth_sum += ticket.depth_at_start as u64;
        self.metrics.peak_transfer_queue_depth = self
            .metrics
            .peak_transfer_queue_depth
            .max(ticket.depth_at_start as u64 + 1);
        ticket.finish_s
    }
}

/// Every user's primary (highest expected rate) covering server, or
/// `None` for uncovered users, through [`primary_server_for`].
pub(crate) fn primary_servers(scenario: &Scenario) -> Result<Vec<Option<usize>>, RuntimeError> {
    (0..scenario.num_users())
        .map(|k| primary_server_for(scenario, k))
        .collect()
}

/// The primary (highest expected rate) covering server of one user, or
/// `None` if the user is uncovered: one argmax over the user's own rate
/// row. A best rate is replaced only by a strictly greater one, so a tie
/// goes to the lowest server index.
pub(crate) fn primary_server_for(
    scenario: &Scenario,
    k: usize,
) -> Result<Option<usize>, RuntimeError> {
    let servers = scenario
        .coverage()
        .servers_of_user(k)
        .map_err(trimcaching_scenario::ScenarioError::from)?;
    let rates = scenario.rates().user_rates(k)?;
    let mut best: Option<(f64, usize)> = None;
    for (&m, &rate) in servers.iter().zip(rates) {
        if best.is_none_or(|(r, _)| rate > r) {
            best = Some((rate, m));
        }
    }
    Ok(best.map(|(_, m)| m))
}

/// Runs one serving replay: build engine, optional warm start, run.
///
/// # Errors
///
/// Propagates configuration and scenario errors.
pub fn serve(
    scenario: &Scenario,
    policy: &dyn EvictionPolicy,
    initial: Option<&Placement>,
    config: &ServeConfig,
) -> Result<ServeReport, RuntimeError> {
    let mut engine = ServeEngine::new(scenario, policy, config.clone())?;
    if let Some(placement) = initial {
        engine.warm_start(placement)?;
    }
    engine.run()
}

/// Fans `runs` independent serving replays (seeds `config.seed`,
/// `config.seed + 1`, ...) out across `threads` worker threads (0 = one
/// per available CPU), like the Monte-Carlo driver. The returned reports
/// are ordered by run index regardless of thread scheduling.
///
/// # Errors
///
/// Returns the error of the lowest-index failing run.
pub fn serve_ensemble(
    scenario: &Scenario,
    policy: &dyn EvictionPolicy,
    initial: Option<&Placement>,
    config: &ServeConfig,
    runs: usize,
    threads: usize,
) -> Result<Vec<ServeReport>, RuntimeError> {
    if runs == 0 {
        return Err(RuntimeError::InvalidConfig {
            reason: "at least one run is required".into(),
        });
    }
    config.validate()?;
    par_map(&mut vec![(); runs], threads, |index, _| {
        let run_config = config
            .clone()
            .with_seed(config.seed.wrapping_add(index as u64));
        serve(scenario, policy, initial, &run_config)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{CostAwareLfu, Lfu, Lru};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use trimcaching_modellib::builders::SpecialCaseBuilder;
    use trimcaching_scenario::prelude::*;
    use trimcaching_wireless::geometry::Point;

    fn scenario(num_users: usize, capacity_gb: f64) -> Scenario {
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
        Scenario::builder()
            .library(library)
            .servers(vec![
                EdgeServer::new(
                    ServerId(0),
                    Point::new(300.0, 500.0),
                    gigabytes(capacity_gb),
                )
                .unwrap(),
                EdgeServer::new(
                    ServerId(1),
                    Point::new(700.0, 500.0),
                    gigabytes(capacity_gb),
                )
                .unwrap(),
            ])
            .users_at(&positions)
            .demand(demand)
            .build()
            .unwrap()
    }

    #[test]
    fn smoke_run_produces_consistent_metrics() {
        let s = scenario(12, 0.5);
        let report = serve(&s, &Lru, None, &ServeConfig::smoke()).unwrap();
        let m = &report.metrics;
        assert_eq!(report.policy, "lru");
        assert!(m.requests > 0, "a minute at 0.2 Hz x 12 users must fire");
        assert_eq!(m.requests, m.hits + m.misses_served + m.rejected);
        assert!((0.0..=1.0).contains(&m.hit_ratio()));
        assert!(m.hit_ratio() <= m.served_ratio());
        assert!(!m.windows().is_empty());
        // Every cached set respects the shared-storage capacity.
        for (srv, cached) in report.final_caches.iter().enumerate() {
            let used = s.library().union_size_bytes(cached.iter().copied());
            assert!(used <= s.capacity_bytes(ServerId(srv)).unwrap());
        }
    }

    #[test]
    fn identical_seeds_give_identical_reports() {
        let s = scenario(10, 0.3);
        let config = ServeConfig::smoke().with_seed(99);
        for granularity in [FillGranularity::Block, FillGranularity::WholeModel] {
            let config = config.clone().with_granularity(granularity);
            for policy in [&Lru as &dyn EvictionPolicy, &Lfu, &CostAwareLfu] {
                let a = serve(&s, policy, None, &config).unwrap();
                let b = serve(&s, policy, None, &config).unwrap();
                assert_eq!(
                    a,
                    b,
                    "policy {} must be deterministic under {granularity:?}",
                    policy.name()
                );
            }
        }
        let c = serve(&s, &Lru, None, &config.clone().with_seed(100)).unwrap();
        assert_ne!(
            serve(&s, &Lru, None, &config).unwrap().metrics,
            c.metrics,
            "different seeds should differ"
        );
    }

    #[test]
    fn fault_runs_are_deterministic_and_fault_free_behavior_is_unchanged() {
        use crate::faults::{FaultConfig, FaultKind, FaultSpec, RecoveryMode};
        let s = scenario(12, 0.5);
        let plain = ServeConfig::smoke().with_seed(5);
        let baseline = serve(&s, &Lru, None, &plain).unwrap();
        // An empty fault schedule must not perturb the trace at all.
        let with_empty = plain.clone().with_faults(FaultConfig::new(Vec::new()));
        let empty_run = serve(&s, &Lru, None, &with_empty).unwrap();
        assert_eq!(baseline.metrics, empty_run.metrics);
        assert_eq!(baseline.final_caches, empty_run.final_caches);
        // A real outage is deterministic and fully accounted.
        let faults = FaultConfig::new(vec![
            FaultSpec {
                at_s: 10.0,
                kind: FaultKind::ServerDown { server: 0 },
            },
            FaultSpec {
                at_s: 40.0,
                kind: FaultKind::ServerUp { server: 0 },
            },
        ])
        .with_recovery(RecoveryMode::Cold);
        let config = plain.with_faults(faults);
        let a = serve(&s, &Lru, None, &config).unwrap();
        let b = serve(&s, &Lru, None, &config).unwrap();
        assert_eq!(a, b, "same-seed faulty runs must be byte-identical");
        assert_eq!(a.metrics.faults_injected, 1);
        assert_eq!(a.metrics.faults_recovered, 1);
        assert!((0.0..=1.0).contains(&a.metrics.availability()));
    }

    #[test]
    fn failover_sustains_higher_availability_than_the_static_baseline() {
        use crate::faults::{FaultConfig, FaultKind, FaultSpec};
        let s = scenario(16, 0.5);
        let outage = vec![
            FaultSpec {
                at_s: 5.0,
                kind: FaultKind::ServerDown { server: 0 },
            },
            FaultSpec {
                at_s: 50.0,
                kind: FaultKind::ServerUp { server: 0 },
            },
        ];
        let base = ServeConfig::smoke().with_seed(11);
        let static_run = serve(
            &s,
            &Lru,
            None,
            &base
                .clone()
                .with_faults(FaultConfig::new(outage.clone()).with_failover(false)),
        )
        .unwrap();
        let failover_run = serve(
            &s,
            &Lru,
            None,
            &base.with_faults(FaultConfig::new(outage).with_failover(true)),
        )
        .unwrap();
        assert!(
            static_run.metrics.requests_failed > 0,
            "a 45 s outage of half the topology must fail some static requests"
        );
        assert!(
            failover_run.metrics.availability() >= static_run.metrics.availability(),
            "failover may not lose availability: {} < {}",
            failover_run.metrics.availability(),
            static_run.metrics.availability()
        );
        assert!(
            failover_run.metrics.requests_failed_over > 0,
            "dual-covered users must actually fail over"
        );
        assert!(
            failover_run.metrics.latency_degraded.count() > 0,
            "requests served during the outage populate the degraded histogram"
        );
    }

    #[test]
    fn downed_server_aborts_fills_and_recovery_restores_the_target() {
        use crate::faults::{FaultConfig, FaultKind, FaultSpec, RecoveryMode};
        let s = scenario(12, 0.5);
        let faults = FaultConfig::new(vec![
            FaultSpec {
                at_s: 8.0,
                kind: FaultKind::ServerDown { server: 0 },
            },
            FaultSpec {
                at_s: 30.0,
                kind: FaultKind::ServerUp { server: 0 },
            },
        ])
        .with_recovery(RecoveryMode::Cold);
        // Warm-start so the recovering server has a target to re-replicate.
        let mut placement = s.empty_placement();
        placement.place(ServerId(0), ModelId(0)).unwrap();
        placement.place(ServerId(1), ModelId(1)).unwrap();
        let config = ServeConfig::smoke().with_seed(3).with_faults(faults);
        let report = serve(&s, &Lru, Some(&placement), &config).unwrap();
        let m = &report.metrics;
        assert_eq!(m.faults_injected, 1);
        assert_eq!(m.faults_recovered, 1);
        assert!(
            m.models_lost > 0,
            "cold recovery of a warm server must lose models"
        );
        assert!(
            m.reconcile_fills_started > 0,
            "self-healing re-replication stages fills on recovery"
        );
    }

    #[test]
    fn link_degradation_stretches_transfers_and_restores() {
        use crate::faults::{FaultConfig, FaultKind, FaultSpec};
        let s = scenario(12, 0.3);
        let base = ServeConfig::smoke().with_seed(9);
        let degraded = base.clone().with_faults(FaultConfig::new(vec![
            FaultSpec {
                at_s: 0.0,
                kind: FaultKind::LinkDegraded {
                    server: 0,
                    factor: 0.05,
                },
            },
            FaultSpec {
                at_s: 55.0,
                kind: FaultKind::LinkRestored { server: 0 },
            },
        ]));
        let healthy = serve(&s, &Lru, None, &base).unwrap();
        let throttled = serve(&s, &Lru, None, &degraded).unwrap();
        assert_eq!(throttled.metrics.faults_injected, 1);
        assert_eq!(throttled.metrics.faults_recovered, 1);
        assert!(
            throttled.metrics.transfer_seconds >= healthy.metrics.transfer_seconds,
            "a 20x slower link cannot speed transfers up"
        );
    }

    #[test]
    fn warm_start_preloads_only_fitting_models() {
        let s = scenario(8, 0.5);
        let mut placement = s.empty_placement();
        for i in 0..3 {
            placement.place(ServerId(0), ModelId(i)).unwrap();
        }
        let mut engine = ServeEngine::new(&s, &Lru, ServeConfig::smoke()).unwrap();
        engine.warm_start(&placement).unwrap();
        let report = engine.run().unwrap();
        // The preloaded server should have served something from cache.
        assert!(report.metrics.hits > 0 || report.metrics.requests == 0);
    }

    #[test]
    fn mobility_rebuilds_snapshots_and_counts_handovers() {
        let s = scenario(9, 0.5);
        let config = ServeConfig::smoke().with_mobility_slot_s(10.0);
        let report = serve(&s, &Lru, None, &config).unwrap();
        // 60 s / 10 s slots -> 5 rebuilds fire strictly before the end.
        assert!(report.metrics.snapshot_rebuilds >= 5);
        // Every slot recorded the users its update refreshed; the
        // mobility model moves every user every slot, so at least one
        // user per slot was refreshed (and never more than all of them).
        assert!(report.metrics.users_refreshed >= report.metrics.snapshot_rebuilds);
        assert!(report.metrics.users_refreshed <= report.metrics.snapshot_rebuilds * 9);
        // Two identical runs still agree under mobility.
        assert_eq!(serve(&s, &Lru, None, &config).unwrap(), report);
    }

    #[test]
    fn in_place_slots_match_full_rebuild_serving() {
        // Replaying the same mobility trajectory against one snapshot
        // evolved in place must serve every request exactly as full
        // per-slot rebuilds would: same eligibility, same latencies,
        // same handover count. Replicate the engine's slot loop with
        // `with_user_positions` and compare the primary assignments.
        let s = scenario(10, 0.5);
        let mut rng = StdRng::seed_from_u64(4242);
        let area = DeploymentArea::paper_default();
        let positions: Vec<Point> = s.users().iter().map(|u| u.position()).collect();
        let mut mobility =
            trimcaching_scenario::mobility::MobilityModel::paper_mix(&positions, area, &mut rng);
        let mut in_place = s.clone();
        for _ in 0..6 {
            mobility.step(&mut rng);
            let fresh = mobility.positions();
            in_place.update_user_positions(&fresh).unwrap();
            let rebuilt = s.with_user_positions(&fresh).unwrap();
            assert_eq!(in_place, rebuilt);
            assert_eq!(
                primary_servers(&in_place).unwrap(),
                primary_servers(&rebuilt).unwrap()
            );
        }
    }

    #[test]
    fn ensemble_is_ordered_and_deterministic() {
        let s = scenario(6, 0.4);
        let config = ServeConfig::smoke();
        let reports = serve_ensemble(&s, &Lfu, None, &config, 4, 2).unwrap();
        assert_eq!(reports.len(), 4);
        for (r, report) in reports.iter().enumerate() {
            assert_eq!(report.seed, config.seed + r as u64);
        }
        let again = serve_ensemble(&s, &Lfu, None, &config, 4, 4).unwrap();
        assert_eq!(reports, again, "thread count must not affect results");
        assert!(serve_ensemble(&s, &Lfu, None, &config, 0, 1).is_err());
    }

    #[test]
    fn oversized_models_never_drain_the_cache() {
        // ~1 MB capacity cannot hold any ~50-100 MB paper model: every
        // miss must leave the caches untouched instead of evicting
        // whatever happens to be resident. The oversize bail-out lives
        // in the single StorageTracker-backed fill path, so it covers
        // both granularities.
        let s = scenario(12, 0.001);
        for granularity in [FillGranularity::Block, FillGranularity::WholeModel] {
            let config = ServeConfig::smoke().with_granularity(granularity);
            let report = serve(&s, &Lru, None, &config).unwrap();
            assert!(report.metrics.requests > 0);
            assert_eq!(report.metrics.evictions, 0, "{granularity:?}");
            assert_eq!(report.metrics.insertions, 0, "{granularity:?}");
            assert_eq!(report.metrics.fills_completed, 0, "{granularity:?}");
            assert_eq!(report.metrics.hits, 0, "{granularity:?}");
            // The bytes still crossed the wire as transient fetches.
            assert!(report.metrics.backhaul_bytes_moved > 0, "{granularity:?}");
            assert_eq!(report.metrics.bytes_downloaded, 0, "{granularity:?}");
        }
    }

    #[test]
    fn block_fills_move_at_most_whole_model_bytes() {
        let s = scenario(12, 0.4);
        let config = ServeConfig::smoke().with_seed(5);
        let block = serve(&s, &Lru, None, &config).unwrap();
        let whole = serve(
            &s,
            &Lru,
            None,
            &config.with_granularity(FillGranularity::WholeModel),
        )
        .unwrap();
        assert_eq!(block.granularity, FillGranularity::Block);
        assert_eq!(whole.granularity, FillGranularity::WholeModel);
        assert!(block.metrics.backhaul_bytes_moved <= whole.metrics.backhaul_bytes_moved);
        // Storage-side provisioning is deduplicated in both modes, and
        // in block mode the wire carries exactly what storage grew by
        // plus the transient fetches — never more than whole models.
        assert!(block.metrics.bytes_downloaded <= block.metrics.backhaul_bytes_moved);
        // Block residency credits partial hits, so the block hit ratio
        // dominates the model-level one.
        assert!(block.metrics.block_hit_ratio() >= block.metrics.hit_ratio());
    }

    #[test]
    fn fills_take_transfer_time_before_becoming_hits() {
        // One user hammering one server: the first request starts a
        // fill; requests landing before the transfer-complete event are
        // misses that join the fill (no new wire bytes), and once the
        // fill lands the model serves as a hit.
        let s = scenario(6, 0.5);
        // A slow 10 Mbps ingest makes every fill take seconds.
        let config = ServeConfig::smoke()
            .with_seed(3)
            .with_cloud_ingest_bps(10.0e6);
        let report = serve(&s, &CostAwareLfu, None, &config).unwrap();
        let m = &report.metrics;
        assert!(m.requests > 0);
        assert!(m.transfers_started > 0);
        assert!(m.transfer_seconds > 0.0);
        assert!(m.mean_transfer_s() > 0.0);
        // Fills scheduled within the horizon completed within it or
        // were cut off by it — never more completions than insertions.
        assert!(m.fills_completed <= m.insertions);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let s = scenario(4, 0.5);
        for bad in [
            ServeConfig::smoke().with_duration_s(0.0),
            ServeConfig::smoke().with_request_rate_hz(-1.0),
            ServeConfig {
                window_s: f64::NAN,
                ..ServeConfig::smoke()
            },
            ServeConfig {
                cloud_fetch_penalty_s: -0.5,
                ..ServeConfig::smoke()
            },
            ServeConfig::smoke().with_cloud_ingest_bps(0.0),
            ServeConfig::smoke().with_cloud_ingest_bps(f64::NAN),
            ServeConfig::smoke().with_control(ControlConfig::paper_defaults().with_tick_s(0.0)),
        ] {
            assert!(serve(&s, &Lru, None, &bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn control_ticks_fire_and_stay_deterministic() {
        let s = scenario(12, 0.5);
        let config = ServeConfig::smoke()
            .with_seed(17)
            .with_control(ControlConfig::paper_defaults().with_tick_s(10.0));
        let a = serve(&s, &Lru, None, &config).unwrap();
        // 60 s at 10 s ticks: five ticks fire strictly inside the run.
        assert!(a.metrics.control_ticks >= 5);
        let b = serve(&s, &Lru, None, &config).unwrap();
        assert_eq!(a, b, "controller-enabled runs must be deterministic");
        // The stationary smoke workload never drifts: the detector may
        // only fire through the (disabled) epoch timer.
        assert_eq!(a.metrics.replans_drift, 0);
    }

    #[test]
    fn epoch_timer_replans_and_accounts_reconfiguration_traffic() {
        let s = scenario(12, 0.3);
        let control = ControlConfig {
            tick_s: 10.0,
            min_observed_requests: 1,
            drift: crate::control::DriftConfig {
                replan_every_s: 20.0,
                ..crate::control::DriftConfig::paper_defaults()
            },
            ..ControlConfig::paper_defaults()
        };
        let config = ServeConfig::smoke().with_seed(23).with_control(control);
        let report = serve(&s, &Lru, None, &config).unwrap();
        assert!(report.metrics.replans_triggered >= 2);
        // Reconfiguration bytes ride the same backhaul accounting.
        assert!(report.metrics.reconcile_bytes_moved <= report.metrics.backhaul_bytes_moved);
        assert!(report.metrics.reconcile_fills_started <= report.metrics.insertions);
        assert!(report.metrics.reconcile_evictions <= report.metrics.evictions);
    }

    #[test]
    fn scheduled_reconcile_converges_towards_the_target() {
        let s = scenario(10, 0.5);
        // Target: models 0..3 on server 0, nothing new on server 1.
        let mut target = s.empty_placement();
        for i in 0..3 {
            target.place(ServerId(0), ModelId(i)).unwrap();
        }
        let mut engine = ServeEngine::new(&s, &Lru, ServeConfig::smoke().with_seed(9)).unwrap();
        engine.schedule_reconcile(5.0, target.clone()).unwrap();
        let report = engine.run().unwrap();
        assert_eq!(report.metrics.replans_triggered, 1);
        assert!(report.metrics.reconcile_fills_started > 0);
        assert!(report.metrics.reconcile_bytes_moved > 0);
        // Every target model that was staged became servable at server 0
        // (the 10 Gbps smoke ingest lands fills long before the horizon).
        for i in 0..3 {
            assert!(
                report.final_caches[0].contains(&ModelId(i)),
                "model {i} should have been reconciled into server 0"
            );
        }
        // Invalid schedules are rejected up front.
        let mut engine = ServeEngine::new(&s, &Lru, ServeConfig::smoke()).unwrap();
        for at_s in [f64::NAN, -1.0, -0.0] {
            assert!(engine.schedule_reconcile(at_s, target.clone()).is_err());
        }
        assert!(engine
            .schedule_reconcile(1.0, Placement::empty(9, 9))
            .is_err());
    }
}

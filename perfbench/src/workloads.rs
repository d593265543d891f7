//! The three benchmark workloads, built through the repository's public
//! APIs only. Why each exists is recorded in `RATIONALE.md`.

use std::path::{Path, PathBuf};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use trimcaching::modellib::builders::{FoundationSpec, LoraLibraryBuilder, SpecialCaseBuilder};
use trimcaching::modellib::ModelLibrary;
use trimcaching::placement::{PlacementAlgorithm, TrimCachingGenLazy};
use trimcaching::runtime::{
    read_journal, ControlConfig, CostAwareLfu, DriftConfig, PersistConfig, PopularityShift,
    ServeConfig, ServeEngine, ServeReport, ShardedServeEngine, Workload,
};
use trimcaching::scenario::{EligibilityRepr, MobilityModel, Placement, Scenario};
use trimcaching::sim::{CityScaleConfig, TopologyConfig};
use trimcaching::wireless::DeploymentArea;

use crate::trace::Tracer;

/// Any failure of a benchmark step, as text.
pub type BenchResult<T> = Result<T, String>;

/// Turns an error into text prefixed with the step that failed.
pub fn err<E: std::fmt::Display>(context: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{context}: {e}")
}

/// The deployment — catalogue, server sites, user drop and demand
/// matrix — is a fixed input of each workload, like the paper's
/// evaluation topology. The workload seed drives everything random at
/// serve time: arrivals, model draws, popularity shifts and mobility.
/// With the deployment drawn from the seed too, one 10-server topology
/// per seed moved the hit ratio by 15% (IQR over median) between seeds,
/// more than any regression bound could absorb; see RATIONALE.md.
const DEPLOYMENT_SEED: u64 = 2024;
/// Checkpoints per horizon of a durable run: every 60 s on
/// mobile-durable. Drift-churn's checkpoints carry its 96 demand phases
/// (~72 MB each), so a fixed 60 s interval would write ~17 GB per run.
const CHECKPOINTS: f64 = 8.0;
/// Durable runs are killed after this share of their horizon.
const KILL_SHARE: f64 = 2.0 / 3.0;

/// The seed streams a workload seed fans out into.
#[derive(Clone, Copy)]
enum Stream {
    Serve = 2,
    Shift = 3,
    Mobility = 4,
}

/// A seed derived from the workload seed (SplitMix64 finaliser), so
/// every stream changes when the workload seed does.
fn derive(seed: u64, stream: Stream) -> u64 {
    let mut z = seed ^ (stream as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    DriftChurn,
    MobileDurable,
    CitySharded,
}

impl Kind {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Kind; 3] = [Kind::DriftChurn, Kind::MobileDurable, Kind::CitySharded];

    pub fn name(self) -> &'static str {
        match self {
            Kind::DriftChurn => "drift-churn",
            Kind::MobileDurable => "mobile-durable",
            Kind::CitySharded => "city-sharded",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Full size is what the benchmark measures; smoke size runs every
/// check and guard in seconds (the self-tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// How the serving engine is laid out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// `ServeEngine`, one thread.
    Classic,
    /// `ShardedServeEngine` with this many strips and worker threads.
    Sharded { shards: usize, threads: usize },
}

/// Every report's rejected share must stay below this: above it the
/// workload measures an overloaded radio, not caching.
const MAX_REJECTED_SHARE: f64 = 0.5;
/// Every report's peak transfer-queue depth must stay at or below this:
/// a deeper queue is a growing backhaul backlog.
const MAX_PEAK_QUEUE_DEPTH: u64 = 64;
/// Served samples a full-size run needs beyond its p99.9 latency.
const MIN_TAIL_SAMPLES: u64 = 75;

/// Workload-specific bounds, so a workload cannot silently turn
/// degenerate (no churn, no mobility, too thin a tail).
pub struct Guards {
    pub min_replans: u64,
    pub min_evictions: u64,
    /// Mobility slots that must each fire a snapshot update.
    pub slots: u64,
    /// Served samples required beyond the p99.9 latency.
    pub min_tail_samples: u64,
}

/// A prepared workload: scenario, placement and serve configuration.
pub struct Setup {
    pub kind: Kind,
    pub scenario: Scenario,
    pub placement: Placement,
    pub evaluations: u64,
    pub expected_hit_ratio: f64,
    pub config: ServeConfig,
    pub workload: Option<Workload>,
    pub layout: Layout,
    /// Whether engines start from the placement (warm) or empty caches.
    pub warm: bool,
    pub guards: Guards,
    /// Side of the area users move in (mobility replay).
    pub area_side_m: f64,
    /// Slots the mobility replay steps through: the workload's own
    /// slots when users move, otherwise a short probe.
    pub replay_slots: usize,
    /// The workload seed.
    pub seed: u64,
}

/// A built engine of either layout. One exists at a time and moves
/// into its run, so the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Engine<'a> {
    Classic(ServeEngine<'a>),
    Sharded(ShardedServeEngine<'a>),
}

impl Engine<'_> {
    pub fn run(self) -> BenchResult<ServeReport> {
        match self {
            Engine::Classic(e) => e.run(),
            Engine::Sharded(e) => e.run(),
        }
        .map_err(err("serve run"))
    }

    pub fn run_until(self, stop_s: f64) -> BenchResult<()> {
        match self {
            Engine::Classic(e) => e.run_until(stop_s),
            Engine::Sharded(e) => e.run_until(stop_s),
        }
        .map_err(err("killed run"))
    }

    /// The span name of a full run under this layout.
    fn run_span(&self) -> &'static str {
        match self {
            Engine::Classic(_) => "runtime.engine.run",
            Engine::Sharded(_) => "runtime.shard.run",
        }
    }
}

fn special_library(models_per_backbone: usize) -> ModelLibrary {
    SpecialCaseBuilder::paper_setup()
        .models_per_backbone(models_per_backbone)
        .build(DEPLOYMENT_SEED)
}

/// The `serve_scaling` LoRA market: three foundations with eight small
/// adapters each.
fn lora_library() -> ModelLibrary {
    let foundations = (0..3)
        .map(|f| FoundationSpec::new(format!("edge-fm{f}"), 4, 8_000_000))
        .collect();
    LoraLibraryBuilder::with_foundations(foundations)
        .adapters_per_foundation(8)
        .adapter_size_bytes(1_500_000)
        .head_size_bytes(500_000)
        .build(DEPLOYMENT_SEED)
}

/// Generates the workload's scenario (`sim.topology.generate`).
fn generate(kind: Kind, size: Size) -> BenchResult<Scenario> {
    let smoke = size == Size::Smoke;
    let generated = match kind {
        Kind::DriftChurn => {
            let mut topology = TopologyConfig::paper_defaults()
                .with_users(if smoke { 300 } else { 3_000 })
                .with_capacity_gb(0.25);
            topology.demand.personalised_popularity = false;
            topology.radio.activity_probability = 0.0067;
            topology.generate(&special_library(10), DEPLOYMENT_SEED, 0)
        }
        Kind::MobileDurable => {
            let mut topology = TopologyConfig::paper_defaults()
                .with_users(if smoke { 500 } else { 5_000 })
                .with_capacity_gb(0.04);
            topology.radio.activity_probability = 0.01;
            topology.generate(&lora_library(), DEPLOYMENT_SEED, 0)
        }
        Kind::CitySharded => {
            let city = if smoke {
                CityScaleConfig::district().with_users(2_000)
            } else {
                CityScaleConfig::city()
            };
            city.generate(&special_library(3), DEPLOYMENT_SEED, 0)
        }
    };
    generated.map_err(err("scenario generation"))
}

/// Area side of the workload's deployment (for the mobility replay).
fn area_side_m(kind: Kind, size: Size) -> f64 {
    match (kind, size) {
        (Kind::CitySharded, Size::Full) => CityScaleConfig::city().area_side_m,
        (Kind::CitySharded, Size::Smoke) => CityScaleConfig::district().area_side_m,
        _ => TopologyConfig::paper_defaults().area_side_m,
    }
}

impl Setup {
    /// Scenario generation and the placement solve, each in its span.
    pub fn prepare(kind: Kind, size: Size, seed: u64, tracer: &mut Tracer) -> BenchResult<Self> {
        let smoke = size == Size::Smoke;
        let scenario = tracer.span("sim.topology.generate", |_| generate(kind, size))?;
        let outcome = tracer
            .span("placement.place", |_| {
                TrimCachingGenLazy::new().place(&scenario)
            })
            .map_err(err("placement"))?;
        let serve_seed = derive(seed, Stream::Serve);
        // Half the rate over twice the horizon keeps drift-churn's ~1.08 M
        // requests but off the backhaul links' saturation knee, where
        // the p99.9 latency swings by 2x from one seed to the next.
        let rate_hz = if kind == Kind::DriftChurn {
            0.025
        } else {
            0.05
        };
        let control = ControlConfig::paper_defaults().with_tick_s(30.0);
        let min_tail_samples = if smoke { 0 } else { MIN_TAIL_SAMPLES };
        let base = ServeConfig::paper_defaults()
            .with_request_rate_hz(rate_hz)
            .with_seed(serve_seed);
        let (config, workload, layout, guards, replay_slots) = match kind {
            Kind::DriftChurn => {
                let epoch_s = 150.0;
                let epochs = if smoke { 8 } else { 96 };
                let shift = PopularityShift::new(epoch_s, epochs, derive(seed, Stream::Shift));
                let workload = shift
                    .workload(scenario.demand(), rate_hz)
                    .map_err(err("popularity shift"))?;
                // A re-plan every 900 s: drift fires it when the detector
                // sees the hit ratio drop, the epoch timer otherwise. The
                // cool-down equal to the timer makes the count the same
                // for every seed, so re-plan work does not swing
                // `req_per_s` between seeds.
                let replan_s = 900.0;
                let control = control.with_drift(DriftConfig {
                    replan_every_s: replan_s,
                    cooldown_s: replan_s,
                    ..DriftConfig::paper_defaults()
                });
                let config = base
                    .with_duration_s(epoch_s * epochs as f64)
                    .with_control(control);
                let guards = Guards {
                    min_replans: 1,
                    min_evictions: 1,
                    slots: 0,
                    min_tail_samples,
                };
                (config, Some(workload), Layout::Classic, guards, 6)
            }
            Kind::MobileDurable => {
                // 480 s (not 300 s) so that, with ~20% of requests
                // rejected, at least 75 served samples lie beyond p99.9.
                let duration_s = if smoke { 60.0 } else { 480.0 };
                let slot_s = 5.0;
                let config = base
                    .with_duration_s(duration_s)
                    .with_mobility_slot_s(slot_s)
                    .with_control(control);
                let slots = (duration_s / slot_s) as usize - 1;
                let guards = Guards {
                    min_replans: 0,
                    min_evictions: 0,
                    slots: slots as u64,
                    min_tail_samples,
                };
                (config, None, Layout::Classic, guards, slots)
            }
            Kind::CitySharded => {
                let config = base.with_duration_s(if smoke { 60.0 } else { 600.0 });
                let guards = Guards {
                    min_replans: 0,
                    min_evictions: 0,
                    slots: 0,
                    min_tail_samples,
                };
                let layout = Layout::Sharded {
                    shards: 4,
                    threads: 2,
                };
                (config, None, layout, guards, 2)
            }
        };
        Ok(Self {
            kind,
            scenario,
            placement: outcome.placement,
            evaluations: outcome.evaluations,
            expected_hit_ratio: outcome.hit_ratio,
            config,
            workload,
            layout,
            // Only drift-churn starts from the Gen-lazy placement; see
            // RATIONALE.md for why the other two fill from cold.
            warm: kind == Kind::DriftChurn,
            guards,
            area_side_m: area_side_m(kind, size),
            replay_slots,
            seed,
        })
    }

    /// Builds an engine and, for warm workloads, preloads the placement
    /// (span `runtime.engine.setup`, or `runtime.shard.setup`).
    pub fn engine(
        &self,
        layout: Layout,
        persist: Option<PersistConfig>,
        tracer: &mut Tracer,
    ) -> BenchResult<Engine<'_>> {
        let mut config = self.config.clone();
        if let Some(p) = persist {
            config = config.with_persist(p);
        }
        let span = match layout {
            Layout::Classic => "runtime.engine.setup",
            Layout::Sharded { .. } => "runtime.shard.setup",
        };
        let warm = self.warm.then_some(&self.placement);
        tracer
            .span(
                span,
                |_| -> Result<Engine<'_>, trimcaching::runtime::RuntimeError> {
                    Ok(match layout {
                        Layout::Classic => {
                            let mut e = ServeEngine::new(&self.scenario, &CostAwareLfu, config)?;
                            if let Some(w) = &self.workload {
                                e.set_workload(w.clone())?;
                            }
                            if let Some(p) = warm {
                                e.warm_start(p)?;
                            }
                            Engine::Classic(e)
                        }
                        Layout::Sharded { shards, threads } => {
                            let mut e = ShardedServeEngine::new(
                                &self.scenario,
                                &CostAwareLfu,
                                config,
                                shards,
                            )?
                            .with_threads(threads);
                            if let Some(w) = &self.workload {
                                e.set_workload(w.clone())?;
                            }
                            if let Some(p) = warm {
                                e.warm_start(p)?;
                            }
                            Engine::Sharded(e)
                        }
                    })
                },
            )
            .map_err(err("engine set-up"))
    }

    /// The persistence settings of a durable run into `dir`.
    fn persist(&self, dir: &Path) -> PersistConfig {
        PersistConfig::new(dir).with_checkpoint_every_s(self.config.duration_s / CHECKPOINTS)
    }

    /// Whether the timed operation is a durable kill-and-resume run.
    pub fn durable(&self) -> bool {
        self.kind == Kind::MobileDurable
    }

    /// Builds the engine the timed operation consumes (set-up work,
    /// outside the timer). `dir` is the scratch directory of durable runs.
    pub fn op_engine(&self, dir: &Path, tracer: &mut Tracer) -> BenchResult<Engine<'_>> {
        let persist = self.durable().then(|| {
            let _ = std::fs::remove_dir_all(dir);
            self.persist(dir)
        });
        self.engine(self.layout, persist, tracer)
    }

    /// The timed operation: a full run, or for the durable workload a
    /// run killed at two thirds of its horizon and resumed to the end.
    pub fn op(
        &self,
        engine: Engine<'_>,
        dir: &Path,
        tracer: &mut Tracer,
    ) -> BenchResult<ServeReport> {
        if self.durable() {
            self.kill_and_resume(engine, dir, tracer)
        } else {
            let span = engine.run_span();
            tracer.span(span, |_| engine.run())
        }
    }

    fn kill_and_resume(
        &self,
        engine: Engine<'_>,
        dir: &Path,
        tracer: &mut Tracer,
    ) -> BenchResult<ServeReport> {
        let kill_s = self.config.duration_s * KILL_SHARE;
        tracer.span("runtime.persist.killed_run", |_| engine.run_until(kill_s))?;
        let persist = self.persist(dir);
        let resumed = tracer
            .span("runtime.persist.resume", |_| match self.layout {
                Layout::Classic => {
                    ServeEngine::resume(&self.scenario, &CostAwareLfu, persist).map(Engine::Classic)
                }
                Layout::Sharded { threads, .. } => {
                    ShardedServeEngine::resume(&self.scenario, &CostAwareLfu, persist)
                        .map(|e| Engine::Sharded(e.with_threads(threads)))
                }
            })
            .map_err(err("resume"))?;
        let span = resumed.run_span();
        tracer.span(span, |_| resumed.run())
    }

    /// Checks one report of this workload: accounting identities and
    /// the operating-point guards. Returns every violated condition.
    pub fn check_report(&self, report: &ServeReport) -> Vec<String> {
        let m = &report.metrics;
        let g = &self.guards;
        let mut bad = Vec::new();
        let mut require = |ok: bool, what: String| {
            if !ok {
                bad.push(what);
            }
        };
        require(
            m.requests == m.hits + m.misses_served + m.rejected,
            format!(
                "requests {} != hits {} + misses {} + rejected {}",
                m.requests, m.hits, m.misses_served, m.rejected
            ),
        );
        require(
            m.reconcile_bytes_moved <= m.backhaul_bytes_moved,
            format!(
                "reconcile bytes {} exceed backhaul bytes {}",
                m.reconcile_bytes_moved, m.backhaul_bytes_moved
            ),
        );
        require(
            m.fills_completed <= m.transfers_started,
            format!(
                "fills completed {} exceed transfers started {}",
                m.fills_completed, m.transfers_started
            ),
        );
        require(m.requests > 0, "no requests were served".into());
        let rejected_share = m.rejected as f64 / m.requests.max(1) as f64;
        require(
            rejected_share < MAX_REJECTED_SHARE,
            format!("rejected share {rejected_share:.3} is not below {MAX_REJECTED_SHARE}"),
        );
        require(
            m.peak_transfer_queue_depth <= MAX_PEAK_QUEUE_DEPTH,
            format!(
                "peak transfer-queue depth {} exceeds {} (growing backhaul backlog)",
                m.peak_transfer_queue_depth, MAX_PEAK_QUEUE_DEPTH
            ),
        );
        require(
            m.replans_triggered >= g.min_replans,
            format!(
                "{} re-plans, need at least {}",
                m.replans_triggered, g.min_replans
            ),
        );
        require(
            m.evictions >= g.min_evictions,
            format!(
                "{} evictions, need at least {}",
                m.evictions, g.min_evictions
            ),
        );
        require(
            m.snapshot_rebuilds >= g.slots && m.users_refreshed >= g.slots,
            format!(
                "{} snapshot updates refreshing {} rows over {} mobility slots",
                m.snapshot_rebuilds, m.users_refreshed, g.slots
            ),
        );
        let served = m.latency.count();
        let tail = served - ((0.999 * served as f64).ceil() as u64).min(served);
        require(
            tail >= g.min_tail_samples,
            format!(
                "only {tail} served samples beyond p99.9, need {}",
                g.min_tail_samples
            ),
        );
        bad
    }

    /// The workload-specific cross-check made outside the timed loop:
    /// the resumed durable run must equal an uninterrupted plain run,
    /// and the sharded run must not depend on its thread count. Returns
    /// the reference report and its run time.
    pub fn reference(&self, tracer: &mut Tracer) -> BenchResult<(ServeReport, f64)> {
        let layout = match self.layout {
            Layout::Classic => Layout::Classic,
            Layout::Sharded { shards, .. } => Layout::Sharded { shards, threads: 1 },
        };
        let engine = self.engine(layout, None, tracer)?;
        let span = engine.run_span();
        let started = Instant::now();
        let report = tracer.span(span, |_| engine.run())?;
        Ok((report, started.elapsed().as_secs_f64()))
    }

    /// `placement.place_with_demand` on the workload's scenario, against
    /// a reshuffled popularity — the re-plan a controller would make.
    pub fn replan(&self, tracer: &mut Tracer) -> BenchResult<f64> {
        let shift = PopularityShift::new(1.0, 2, derive(self.seed, Stream::Shift));
        let phases = shift
            .phases(self.scenario.demand())
            .map_err(err("re-plan demand"))?;
        let started = Instant::now();
        tracer
            .span("placement.place_with_demand", |_| {
                TrimCachingGenLazy::new().place_with_demand(&self.scenario, &phases[1])
            })
            .map_err(err("re-plan"))?;
        Ok(started.elapsed().as_secs_f64())
    }

    /// Replays the workload's mobility slots from outside the engine:
    /// `MobilityModel::step` then `Scenario::update_user_positions`, one
    /// span each per slot.
    pub fn mobility_replay(&self, tracer: &mut Tracer) -> BenchResult<ReplayStats> {
        let mut current = self.scenario.clone();
        let area = DeploymentArea::new(self.area_side_m).map_err(err("area"))?;
        let positions: Vec<_> = current.users().iter().map(|u| u.position()).collect();
        let mut rng = StdRng::seed_from_u64(derive(self.seed, Stream::Mobility));
        let mut model = MobilityModel::paper_mix(&positions, area, &mut rng);
        let mut stats = ReplayStats {
            slots: self.replay_slots,
            ..ReplayStats::default()
        };
        for slot in 0..self.replay_slots {
            tracer.span("scenario.mobility.step", |_| model.step(&mut rng));
            let positions = model.positions();
            let delta = tracer
                .span("scenario.update_user_positions", |_| {
                    current.update_user_positions(&positions)
                })
                .map_err(err("position update"))?;
            if delta.moved_users().is_empty() || delta.refreshed_users().is_empty() {
                return Err(format!("mobility slot {slot} refreshed no rows"));
            }
            stats.moved_users += delta.moved_users().len() as u64;
            stats.refreshed_users += delta.refreshed_users().len() as u64;
            stats.reallocated_servers += delta.reallocated_servers().len() as u64;
        }
        Ok(stats)
    }

    /// Durability on this workload: an uninterrupted durable run (its
    /// time against the plain run's is the overhead), the journal and
    /// checkpoint sizes, `read_journal`, and a kill-and-resume run. Both
    /// durable reports must equal `plain`.
    pub fn persist_probe(
        &self,
        dir: &Path,
        plain: &ServeReport,
        tracer: &mut Tracer,
    ) -> BenchResult<PersistStats> {
        let _ = std::fs::remove_dir_all(dir);
        let engine = self.engine(self.layout, Some(self.persist(dir)), tracer)?;
        let started = Instant::now();
        let durable = tracer.span("runtime.persist.durable_run", |_| engine.run())?;
        let durable_run_s = started.elapsed().as_secs_f64();
        if durable != *plain {
            return Err("a durable run differs from the plain run".into());
        }
        let (mut journal_bytes, mut records) = (0u64, 0u64);
        let mut journals = Vec::new();
        for entry in std::fs::read_dir(dir).map_err(err("persist dir"))? {
            let path: PathBuf = entry.map_err(err("persist dir"))?.path();
            if path.extension().is_some_and(|x| x == "tcj") {
                journals.push(path);
            }
        }
        journals.sort();
        let started = Instant::now();
        tracer.span("runtime.persist.read_journal", |_| -> BenchResult<()> {
            for path in &journals {
                let (_, served) = read_journal(path).map_err(err("read_journal"))?;
                records += served.len() as u64;
                journal_bytes += std::fs::metadata(path).map_err(err("journal"))?.len();
            }
            Ok(())
        })?;
        let read_journal_s = started.elapsed().as_secs_f64();
        if records != plain.metrics.requests {
            return Err(format!(
                "journals hold {records} records for {} requests",
                plain.metrics.requests
            ));
        }
        let checkpoint_bytes = std::fs::metadata(self.persist(dir).checkpoint_path())
            .map_err(err("checkpoint"))?
            .len();

        let _ = std::fs::remove_dir_all(dir);
        let engine = self.engine(self.layout, Some(self.persist(dir)), tracer)?;
        let resumed = self.kill_and_resume(engine, dir, tracer)?;
        if resumed != *plain {
            return Err("a killed-and-resumed run differs from the plain run".into());
        }
        let _ = std::fs::remove_dir_all(dir);
        Ok(PersistStats {
            durable_run_s,
            read_journal_s,
            journal_bytes,
            checkpoint_bytes,
        })
    }

    /// The sharded engine on one and on two worker threads. Its report
    /// must equal `plain`. The sharded workload runs its own layout; the
    /// others run one shard, which must be bit-equal to the classic
    /// engine.
    pub fn shard_probe(&self, plain: &ServeReport, tracer: &mut Tracer) -> BenchResult<ShardStats> {
        let shards = match self.layout {
            Layout::Sharded { shards, .. } => shards,
            Layout::Classic => 1,
        };
        let mut times = [0.0; 2];
        for (slot, threads) in [(0, 1), (1, 2)] {
            let engine = self.engine(Layout::Sharded { shards, threads }, None, tracer)?;
            let started = Instant::now();
            let report = tracer.span("runtime.shard.run", |_| engine.run())?;
            times[slot] = started.elapsed().as_secs_f64();
            if report != *plain {
                return Err(format!(
                    "{shards} shard(s) on {threads} thread(s) differ from the reference run"
                ));
            }
        }
        Ok(ShardStats {
            shards,
            run_1t_s: times[0],
            run_2t_s: times[1],
        })
    }

    /// Whether the scenario uses the sparse eligibility representation.
    pub fn eligibility_sparse(&self) -> bool {
        self.scenario.eligibility_repr() == EligibilityRepr::Sparse
    }
}

/// Totals over the mobility replay.
#[derive(Debug, Default)]
pub struct ReplayStats {
    pub slots: usize,
    pub moved_users: u64,
    pub refreshed_users: u64,
    pub reallocated_servers: u64,
}

/// What the durability probe measured.
#[derive(Debug)]
pub struct PersistStats {
    pub durable_run_s: f64,
    pub read_journal_s: f64,
    pub journal_bytes: u64,
    pub checkpoint_bytes: u64,
}

/// What the shard probe measured.
#[derive(Debug)]
pub struct ShardStats {
    pub shards: usize,
    pub run_1t_s: f64,
    pub run_2t_s: f64,
}

//! Full run-state checkpoints at slot boundaries.
//!
//! A checkpoint is everything a run needs to continue, each fact stored
//! once. The payload is one [`Checkpoint`] value:
//!
//! 1. **Run section** — facts every region reads: the boundary time,
//!    the policy name, the run configuration, the request workload (rate,
//!    phase starts, the CDFs of each phase's distinct popularity rows and
//!    the user→row map), user positions, primary servers and request
//!    generations, and the staged oracle reconciliations.
//! 2. **Server section** — one `ServerState` per server (cache
//!    contents, in-flight backhaul transfers, down flag, link degrade
//!    factor), taken from the region that owns the server.
//! 3. **Region sections** — one `RegionState` per region, holding only
//!    what that region owns: RNG words, pending events, the next event
//!    sequence number, metrics, controller, mobility kinematics, last
//!    reconciliation target and the journal byte offset the checkpoint
//!    corresponds to. Region seeds are not stored: region `s` runs on
//!    run seed + `s`.
//!
//! Restoring it and replaying the journal suffix reproduces the
//! uninterrupted run byte for byte.
//!
//! File layout: 4-byte magic (`TCKP`), a format-version byte, a `u32`
//! payload length, the payload, and a CRC-32 of the payload. Writes go
//! to a temp file in the same directory and are renamed into place, so
//! a crash mid-checkpoint leaves the previous checkpoint intact.

use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;

use trimcaching_modellib::ModelId;
use trimcaching_scenario::mobility::{MobileUser, MobilityClass};
use trimcaching_scenario::{Placement, ServerId, UserId};
use trimcaching_wireless::geometry::Point;

use super::wire::{crc32, decode, encode, wire_enum, wire_struct, Decoder, Encoder, Wire};
use super::PersistError;
use crate::cache::CacheSnapshot;
use crate::control::drift::DriftSnapshot;
use crate::control::estimator::EstimatorSnapshot;
use crate::control::{ControlConfig, ControllerSnapshot, DriftConfig};
use crate::engine::{FillGranularity, ServeConfig};
use crate::event::{Event, EventKind};
use crate::faults::{FaultConfig, FaultKind, FaultSpec, RecoveryMode};
use crate::metrics::{LatencyHistogram, ServeMetrics, WindowPoint, HIST_BUCKETS};
use crate::workload::Workload;

/// Checkpoint file magic: "TrimCaching CheckPoint".
pub(crate) const CHECKPOINT_MAGIC: [u8; 4] = *b"TCKP";
/// Checkpoint format version this build reads and writes.
///
/// Version 2 added the fault-state section: the per-server down mask,
/// link degradation factors, the last reconciliation target, the fault
/// schedule in the config, the fault counters (and degraded-mode
/// latency histogram) in the metrics, and the `FaultTransition` /
/// `RetryFill` event kinds.
///
/// Version 3 made the payload shard-aware — a `u32` shard count
/// followed by one engine state per shard (a classic single-threaded
/// run writes shard count 1) — and added the workload's optional
/// user→class map for clustered demand.
///
/// Version 4 added per-user request generations: the generation vector
/// after the primary servers, and a `u32` generation on every `Request`
/// event, so a checkpoint taken after migrations restores which request
/// chains are live.
///
/// Version 5 stores the run's one workload once, ahead of the region
/// states: the CDFs of each phase's distinct popularity rows and an
/// always-present user→row map, instead of per-user (or per-class) CDFs
/// repeated in every region state.
///
/// Version 6 stores each fact once: run-wide facts (time, policy,
/// config, positions, primaries, generations, staged reconciliations)
/// and one state per server lead the payload, and each region section
/// holds only what the region owns. Placements are per-server model
/// lists.
pub(crate) const CHECKPOINT_VERSION: u8 = 6;

/// A loaded (or about-to-be-written) checkpoint file: the run section,
/// one state per server and one state per region (a classic
/// single-threaded run has exactly one region).
///
/// The contents are crate-private — consumers go through
/// [`ServeEngine::resume`], [`ServeEngine::fork`] and
/// [`ShardedServeEngine::resume`]; the public surface exposes identity
/// accessors and the raw byte image for round-trip testing.
///
/// [`ServeEngine::resume`]: crate::engine::ServeEngine::resume
/// [`ServeEngine::fork`]: crate::engine::ServeEngine::fork
/// [`ShardedServeEngine::resume`]: crate::shard::ShardedServeEngine::resume
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Simulated time of the boundary.
    pub(crate) time_s: f64,
    /// Name of the eviction policy driving the run.
    pub(crate) policy: String,
    /// The run's configuration under the run seed (persistence settings
    /// excluded — they belong to the process, not the simulated state).
    pub(crate) config: ServeConfig,
    /// The run's request workload.
    pub(crate) workload: Workload,
    /// Current user positions.
    pub(crate) positions: Vec<Point>,
    /// Per-user primary server (`None` = uncovered).
    pub(crate) primary: Vec<Option<usize>>,
    /// Per-user request generation (bumped on every migration).
    pub(crate) generation: Vec<u32>,
    /// Staged oracle reconciliations: `(time, target placement)`.
    pub(crate) scheduled: Vec<(f64, Placement)>,
    /// One state per server, from the region owning it.
    pub(crate) servers: Vec<ServerState>,
    /// One state per region, region-id order; never empty.
    pub(crate) regions: Vec<RegionState>,
}

/// The mutable state of one server at a slot boundary.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ServerState {
    /// Cache contents, access statistics and block transfer state.
    pub cache: CacheSnapshot,
    /// Finish times of the backhaul link's in-flight transfers.
    pub inflight: Vec<f64>,
    /// Whether the server is down.
    pub down: bool,
    /// Backhaul link degradation factor (1.0 = nominal).
    pub degrade: f64,
}

/// What one region owns at a slot boundary.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RegionState {
    /// xoshiro256++ state words of the region's RNG.
    pub rng: [u64; 4],
    /// Pending events in firing order.
    pub events: Vec<Event>,
    /// Next event sequence number.
    pub next_seq: u64,
    /// Cumulative metrics at the boundary.
    pub metrics: ServeMetrics,
    /// Controller state, when the control loop is on.
    pub controller: Option<ControllerSnapshot>,
    /// Mobility kinematics, when mobility is on.
    pub mobility: Option<MobilityState>,
    /// The placement the region last reconciled toward — the target
    /// self-healing re-replication restores a recovering server to.
    pub last_target: Option<Placement>,
    /// Journal length in bytes at the boundary: records at or before
    /// this offset are already reflected in the checkpoint.
    pub journal_offset: u64,
}

/// Mobility kinematics of one region.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MobilityState {
    /// Slot length of the mobility model in seconds.
    pub slot_seconds: f64,
    /// Per-user kinematic state (position, speed, heading, class).
    pub users: Vec<MobileUser>,
}

impl Checkpoint {
    /// Loads and CRC-verifies a checkpoint file.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors and on any structural corruption (bad magic,
    /// unsupported version, CRC mismatch, short file).
    pub fn load(path: &Path) -> Result<Self, PersistError> {
        let mut bytes = Vec::new();
        File::open(path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(|e| PersistError::io(path, e))?;
        Self::from_bytes(&bytes)
    }

    /// Writes the checkpoint atomically: the full image goes to a
    /// sibling temp file first and is renamed over `path`, so a crash
    /// mid-write cannot clobber the previous checkpoint. Equivalent to
    /// [`Checkpoint::save_with`] without `fsync`: durable against a
    /// process crash, not against power loss.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors.
    pub fn save(&self, path: &Path) -> Result<(), PersistError> {
        self.save_with(path, false)
    }

    /// [`Checkpoint::save`] with an explicit durability level: when
    /// `fsync` is set the temp file is flushed to stable storage before
    /// the rename, so the checkpoint also survives power loss (see
    /// [`PersistConfig::fsync`](super::PersistConfig::fsync)).
    ///
    /// # Errors
    ///
    /// Fails on I/O errors.
    pub fn save_with(&self, path: &Path, fsync: bool) -> Result<(), PersistError> {
        let tmp = path.with_extension("tmp");
        let bytes = self.to_bytes();
        File::create(&tmp)
            .and_then(|mut f| {
                f.write_all(&bytes)?;
                if fsync {
                    f.sync_all()?;
                }
                Ok(())
            })
            .map_err(|e| PersistError::io(&tmp, e))?;
        std::fs::rename(&tmp, path).map_err(|e| PersistError::io(path, e))
    }

    /// The complete file image: magic, version, length-prefixed payload
    /// and CRC-32 trailer. Encoding is deterministic — the same state
    /// always yields the same bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let payload = encode(self);
        let mut out = Vec::with_capacity(payload.len() + 13);
        out.extend_from_slice(&CHECKPOINT_MAGIC);
        out.push(CHECKPOINT_VERSION);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out
    }

    /// Parses and CRC-verifies a complete file image.
    ///
    /// # Errors
    ///
    /// Fails on any structural corruption.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PersistError> {
        if bytes.len() < 9 || bytes[..4] != CHECKPOINT_MAGIC {
            return Err(PersistError::Corrupt {
                context: "checkpoint: missing TCKP magic".into(),
            });
        }
        if bytes[4] != CHECKPOINT_VERSION {
            return Err(PersistError::Corrupt {
                context: format!("checkpoint: unsupported format version {}", bytes[4]),
            });
        }
        let len = u32::from_le_bytes([bytes[5], bytes[6], bytes[7], bytes[8]]) as usize;
        if bytes.len() != 9 + len + 4 {
            return Err(PersistError::Corrupt {
                context: format!(
                    "checkpoint: payload length {len} disagrees with file size {}",
                    bytes.len()
                ),
            });
        }
        let payload = &bytes[9..9 + len];
        let stored_crc = u32::from_le_bytes([
            bytes[9 + len],
            bytes[10 + len],
            bytes[11 + len],
            bytes[12 + len],
        ]);
        if crc32(payload) != stored_crc {
            return Err(PersistError::Corrupt {
                context: "checkpoint: CRC mismatch".into(),
            });
        }
        decode(payload, "checkpoint")
    }

    /// Number of regions this checkpoint captures (1 for a classic
    /// single-threaded run).
    pub fn num_shards(&self) -> usize {
        self.regions.len()
    }

    /// Simulated time of the boundary this checkpoint captures.
    pub fn time_s(&self) -> f64 {
        self.time_s
    }

    /// Name of the eviction policy the checkpointed run was using.
    pub fn policy(&self) -> &str {
        &self.policy
    }

    /// RNG seed of the checkpointed run (region `s` runs on seed + `s`).
    pub fn seed(&self) -> u64 {
        self.config.seed
    }
}

/// Background checkpoint writer: encoding, writing, (optionally)
/// fsyncing and the atomic rename happen off the simulation thread,
/// with at most one write in flight. The state itself is captured
/// synchronously at the boundary, so resumability and determinism are
/// unaffected — only the disk latency is taken off the serving path.
#[derive(Debug, Default)]
pub(crate) struct CheckpointSaver {
    pending: Option<std::thread::JoinHandle<Result<(), PersistError>>>,
}

impl CheckpointSaver {
    /// Hands `checkpoint` to the writer thread, first waiting out any
    /// write still in flight — so a slow disk back-pressures the run
    /// instead of queueing unbounded state copies, and a write failure
    /// surfaces at the next boundary.
    pub(crate) fn save(
        &mut self,
        path: std::path::PathBuf,
        checkpoint: Checkpoint,
        fsync: bool,
    ) -> Result<(), PersistError> {
        self.wait()?;
        self.pending = Some(std::thread::spawn(move || {
            checkpoint.save_with(&path, fsync)
        }));
        Ok(())
    }

    /// Blocks until the in-flight write, if any, has completed, and
    /// reports its outcome.
    pub(crate) fn wait(&mut self) -> Result<(), PersistError> {
        match self.pending.take() {
            None => Ok(()),
            Some(handle) => handle.join().map_err(|_| PersistError::Corrupt {
                context: "checkpoint: background writer panicked".into(),
            })?,
        }
    }
}

wire_struct!(Checkpoint {
    time_s: f64,
    policy: String,
    config: ServeConfig,
    workload: Workload,
    positions: Vec<Point>,
    primary: Vec<Option<usize>>,
    generation: Vec<u32>,
    scheduled: Vec<(f64, Placement)>,
    servers: Vec<ServerState>,
    regions: Vec<RegionState>,
} check |c: &Checkpoint| !c.regions.is_empty());

wire_struct!(ServerState {
    cache: CacheSnapshot,
    inflight: Vec<f64>,
    down: bool,
    degrade: f64,
});

wire_struct!(RegionState {
    rng: [u64; 4],
    events: Vec<Event>,
    next_seq: u64,
    metrics: ServeMetrics,
    controller: Option<ControllerSnapshot>,
    mobility: Option<MobilityState>,
    last_target: Option<Placement>,
    journal_offset: u64,
});

wire_struct!(MobilityState {
    slot_seconds: f64,
    users: Vec<MobileUser>,
});

/// The workload's wire image is the rate, the phase starts, then the
/// CDF table as a sequence of phases, each a sequence of rows, each a
/// sequence of entries (the layout of a nested `Vec<Vec<Vec<f64>>>`),
/// then the user→row map. Decoding rejects a workload a run could not
/// draw from: see `workload_fault`.
impl Wire for Workload {
    fn put(&self, e: &mut Encoder) {
        e.put(&self.rate_hz);
        e.put(&self.starts_s);
        e.put(&self.num_phases());
        for phase in 0..self.num_phases() {
            e.put(&self.rows);
            for row in 0..self.rows {
                let cdf = self.cdf(phase, row);
                e.put(&cdf.len());
                for c in cdf {
                    e.put(c);
                }
            }
        }
        e.put(&self.user_row);
    }

    fn get(d: &mut Decoder<'_>) -> Result<Self, PersistError> {
        let rate_hz = d.get()?;
        let starts_s = d.get()?;
        let phases = d.seq_len()?;
        let (mut rows, mut width) = (None, None);
        let mut cdfs = Vec::new();
        for _ in 0..phases {
            let n = d.seq_len()?;
            if *rows.get_or_insert(n) != n {
                return Err(d.invalid("workload phases of unequal row counts"));
            }
            for _ in 0..n {
                let w = d.seq_len()?;
                if width.is_none() {
                    // Every entry takes eight bytes of the input.
                    let entries = phases.saturating_mul(n).saturating_mul(w);
                    cdfs.reserve(entries.min(d.remaining() / 8));
                }
                if *width.get_or_insert(w) != w {
                    return Err(d.invalid("workload CDF rows of unequal widths"));
                }
                for _ in 0..w {
                    cdfs.push(d.get()?);
                }
            }
        }
        let workload = Workload {
            rate_hz,
            starts_s,
            rows: rows.unwrap_or(0),
            width: width.unwrap_or(0),
            cdfs,
            user_row: d.get()?,
        };
        match workload_fault(&workload) {
            Some(fault) => Err(d.invalid(fault)),
            None => Ok(workload),
        }
    }
}

/// Why a decoded workload cannot drive a run, or `None` when it can: a
/// positive finite rate, phase starts from 0 s strictly increasing, at
/// least one row, every row a CDF (finite, non-negative, non-decreasing,
/// ending at exactly 1) and every user on a stored row.
fn workload_fault(w: &Workload) -> Option<&'static str> {
    let is_cdf = |cdf: &[f64]| {
        cdf.first().is_some_and(|&c| c >= 0.0)
            && cdf.windows(2).all(|pair| pair[0] <= pair[1])
            && cdf.last() == Some(&1.0)
    };
    if !(w.rate_hz.is_finite() && w.rate_hz > 0.0) {
        Some("workload rate is not positive and finite")
    } else if w.starts_s.first() != Some(&0.0)
        || !w.starts_s.windows(2).all(|pair| pair[0] < pair[1])
        || !w.starts_s.iter().all(|s| s.is_finite())
    {
        Some("workload phase starts do not rise strictly from 0 s")
    } else if w.rows == 0 {
        Some("workload holds no popularity rows")
    } else if w.cdfs.len() != w.starts_s.len() * w.rows * w.width {
        Some("workload phase count disagrees with its starts")
    } else if !(0..w.num_phases()).all(|p| (0..w.rows).all(|r| is_cdf(w.cdf(p, r)))) {
        Some("workload CDF row is not finite, non-decreasing and ending at 1")
    } else if w.user_row.iter().any(|&r| r as usize >= w.rows) {
        Some("workload user draws from a row no phase holds")
    } else {
        None
    }
}

wire_struct!(ServeConfig {
    duration_s: f64,
    request_rate_hz: f64,
    window_s: f64,
    cloud_fetch_penalty_s: f64,
    mobility_slot_s: f64,
    area_side_m: f64,
    granularity: FillGranularity,
    cloud_ingest_bps: f64,
    congestion_aware: bool,
    control: Option<ControlConfig>,
    faults: Option<FaultConfig>,
    seed: u64,
} skip { persist });

wire_struct!(ControlConfig {
    tick_s: f64,
    estimator_alpha: f64,
    min_observed_requests: u64,
    drift: DriftConfig,
});

wire_struct!(DriftConfig {
    degradation: f64,
    latency_rise: f64,
    patience: u32,
    reference_alpha: f64,
    replan_every_s: f64,
    cooldown_s: f64,
});

wire_struct!(FaultConfig {
    timeline: Vec<FaultSpec>,
    recovery: RecoveryMode,
    failover: bool,
    max_fill_retries: u32,
    retry_backoff_s: f64,
    retry_backoff_cap_s: f64,
    retry_jitter: f64,
});

wire_struct!(FaultSpec {
    at_s: f64,
    kind: FaultKind,
});

impl Wire for RecoveryMode {
    fn put(&self, e: &mut Encoder) {
        match *self {
            RecoveryMode::Intact => e.put(&0u8),
            RecoveryMode::Cold => e.put(&1u8),
            RecoveryMode::Partial { keep_fraction } => {
                e.put(&2u8);
                e.put(&keep_fraction);
            }
        }
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self, PersistError> {
        Ok(match d.get::<u8>()? {
            0 => RecoveryMode::Intact,
            1 => RecoveryMode::Cold,
            2 => RecoveryMode::Partial {
                keep_fraction: d.get::<f64>()?,
            },
            other => return Err(d.invalid(format_args!("unknown recovery mode tag {other}"))),
        })
    }
}

impl Wire for FaultKind {
    fn put(&self, e: &mut Encoder) {
        let (tag, server) = match *self {
            FaultKind::ServerDown { server } => (0u8, server),
            FaultKind::ServerUp { server } => (1, server),
            FaultKind::LinkDegraded { server, .. } => (2, server),
            FaultKind::LinkRestored { server } => (3, server),
        };
        e.put(&tag);
        e.put(&server);
        if let FaultKind::LinkDegraded { factor, .. } = *self {
            e.put(&factor);
        }
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self, PersistError> {
        let tag: u8 = d.get()?;
        let server: usize = d.get()?;
        Ok(match tag {
            0 => FaultKind::ServerDown { server },
            1 => FaultKind::ServerUp { server },
            2 => FaultKind::LinkDegraded {
                server,
                factor: d.get::<f64>()?,
            },
            3 => FaultKind::LinkRestored { server },
            other => return Err(d.invalid(format_args!("unknown fault kind tag {other}"))),
        })
    }
}

wire_struct!(Event {
    time_s: f64,
    seq: u64,
    kind: EventKind,
});

impl Wire for EventKind {
    fn put(&self, e: &mut Encoder) {
        match *self {
            EventKind::Request { user, generation } => {
                e.put(&0u8);
                e.put(&user.0);
                e.put(&generation);
            }
            EventKind::MobilitySlot => e.put(&1u8),
            EventKind::TransferComplete { server, model } => {
                e.put(&2u8);
                e.put(&server);
                e.put(&model.0);
            }
            EventKind::ControlTick => e.put(&3u8),
            EventKind::ScheduledReconcile { index } => {
                e.put(&4u8);
                e.put(&index);
            }
            EventKind::FaultTransition { index } => {
                e.put(&5u8);
                e.put(&index);
            }
            EventKind::RetryFill {
                server,
                model,
                attempt,
            } => {
                e.put(&6u8);
                e.put(&server);
                e.put(&model.0);
                e.put(&attempt);
            }
        }
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self, PersistError> {
        Ok(match d.get::<u8>()? {
            0 => EventKind::Request {
                user: UserId(d.get::<usize>()?),
                generation: d.get::<u32>()?,
            },
            1 => EventKind::MobilitySlot,
            2 => EventKind::TransferComplete {
                server: d.get::<usize>()?,
                model: ModelId(d.get::<usize>()?),
            },
            3 => EventKind::ControlTick,
            4 => EventKind::ScheduledReconcile {
                index: d.get::<usize>()?,
            },
            5 => EventKind::FaultTransition {
                index: d.get::<usize>()?,
            },
            6 => EventKind::RetryFill {
                server: d.get::<usize>()?,
                model: ModelId(d.get::<usize>()?),
                attempt: d.get::<u32>()?,
            },
            other => return Err(d.invalid(format_args!("unknown event kind tag {other}"))),
        })
    }
}

impl Wire for ModelId {
    fn put(&self, e: &mut Encoder) {
        e.put(&self.0);
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self, PersistError> {
        Ok(ModelId(d.get::<usize>()?))
    }
}

wire_struct!(CacheSnapshot {
    resident: Vec<ModelId>,
    last_access_s: Vec<f64>,
    access_count: Vec<u64>,
    pending: Vec<bool>,
    pending_eta_s: Vec<f64>,
    block_arrived: Vec<bool>,
    block_eta_s: Vec<f64>,
    insertions: u64,
    evictions: u64,
});

wire_struct!(LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
}
    check |h: &LatencyHistogram| h.buckets.len() == HIST_BUCKETS);

wire_struct!(ServeMetrics {
    requests: u64,
    hits: u64,
    misses_served: u64,
    rejected: u64,
    bytes_downloaded: u64,
    backhaul_bytes_moved: u64,
    transfers_started: u64,
    fills_completed: u64,
    transfer_seconds: f64,
    peak_transfer_queue_depth: u64,
    transfer_queue_depth_sum: u64,
    block_requests: u64,
    block_hits: u64,
    insertions: u64,
    evictions: u64,
    snapshot_rebuilds: u64,
    users_refreshed: u64,
    handovers: u64,
    control_ticks: u64,
    replans_triggered: u64,
    replans_drift: u64,
    reconcile_fills_started: u64,
    reconcile_bytes_moved: u64,
    reconcile_evictions: u64,
    recoveries: u64,
    recovery_seconds: f64,
    faults_injected: u64,
    faults_recovered: u64,
    requests_failed: u64,
    requests_failed_over: u64,
    fills_aborted: u64,
    fill_retries: u64,
    models_lost: u64,
    latency: LatencyHistogram,
    latency_degraded: LatencyHistogram,
    windows: Vec<WindowPoint>,
    window_s: f64,
    window_end_s: f64,
    window_requests: u64,
    window_hits: u64,
    last_event_s: f64,
} check |m: &ServeMetrics| m.window_s.is_finite() && m.window_s > 0.0);

wire_struct!(WindowPoint {
    end_s: f64,
    requests: u64,
    hits: u64,
});

wire_struct!(ControllerSnapshot {
    config: ControlConfig,
    estimator: EstimatorSnapshot,
    drift: DriftSnapshot,
    seen_requests: u64,
    seen_hits: u64,
    seen_latency: LatencyHistogram,
});

wire_struct!(EstimatorSnapshot {
    alpha: f64,
    num_users: u64,
    num_models: u64,
    epoch_log: Vec<u32>,
    rates: Vec<f64>,
    scale: f64,
    primed: bool,
    total_requests: u64,
    epochs_rolled: u64,
});

wire_struct!(DriftSnapshot {
    config: DriftConfig,
    reference_hit: Option<f64>,
    reference_p95: Option<f64>,
    degraded_ticks: u32,
    pre_drift_reference: Option<f64>,
    last_replan_s: Option<f64>,
    recovery: Option<(f64, f64)>,
});

wire_struct!(Point { x: f64, y: f64 });

wire_struct!(MobileUser {
    position: Point,
    speed_mps: f64,
    orientation_rad: f64,
    class: MobilityClass,
});

wire_enum!(MobilityClass {
    Pedestrian = 0,
    Bike = 1,
    Vehicle = 2,
});

/// A placement is its model count and one model list per server, so the
/// server count is a sequence length the decoder bounds by its input.
impl Wire for Placement {
    fn put(&self, e: &mut Encoder) {
        let mut lists = vec![Vec::new(); self.num_servers()];
        for (server, model) in self.iter() {
            lists[server.index()].push(model);
        }
        e.put(&self.num_models());
        e.put(&lists);
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self, PersistError> {
        let num_models: usize = d.get()?;
        let lists: Vec<Vec<ModelId>> = d.get()?;
        let mut p = Placement::empty(lists.len(), num_models);
        for (server, models) in lists.into_iter().enumerate() {
            for model in models {
                p.place(ServerId(server), model)
                    .map_err(|e| d.invalid(format_args!("invalid placement entry: {e}")))?;
            }
        }
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RequestOutcome;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tc-checkpoint-{}-{name}", std::process::id()))
    }

    fn sample_checkpoint() -> Checkpoint {
        let mut metrics = ServeMetrics::new(10.0);
        metrics.record(1.0, RequestOutcome::Hit, Some(0.125));
        metrics.record(12.0, RequestOutcome::MissServed, Some(0.5));
        metrics.bytes_downloaded = 1024;
        metrics.faults_injected = 2;
        metrics.faults_recovered = 1;
        metrics.requests_failed = 3;
        metrics.requests_failed_over = 4;
        metrics.fills_aborted = 1;
        metrics.fill_retries = 5;
        metrics.models_lost = 2;
        metrics.latency_degraded.record(0.75);
        let mut placement = Placement::empty(2, 3);
        placement.place(ServerId(1), ModelId(2)).unwrap();
        let mut target = Placement::empty(2, 3);
        target.place(ServerId(0), ModelId(1)).unwrap();
        let faults = crate::faults::FaultConfig::new(vec![
            crate::faults::FaultSpec {
                at_s: 40.0,
                kind: crate::faults::FaultKind::ServerDown { server: 1 },
            },
            crate::faults::FaultSpec {
                at_s: 55.0,
                kind: crate::faults::FaultKind::LinkDegraded {
                    server: 0,
                    factor: 0.5,
                },
            },
            crate::faults::FaultSpec {
                at_s: 70.0,
                kind: crate::faults::FaultKind::ServerUp { server: 1 },
            },
            crate::faults::FaultSpec {
                at_s: 80.0,
                kind: crate::faults::FaultKind::LinkRestored { server: 0 },
            },
        ])
        .with_recovery(crate::faults::RecoveryMode::Partial { keep_fraction: 0.5 });
        let region = RegionState {
            rng: [1, 2, 3, u64::MAX],
            events: vec![
                Event {
                    time_s: 31.5,
                    seq: 7,
                    kind: EventKind::Request {
                        user: UserId(3),
                        generation: 2,
                    },
                },
                Event {
                    time_s: 33.0,
                    seq: 9,
                    kind: EventKind::TransferComplete {
                        server: 1,
                        model: ModelId(2),
                    },
                },
                Event {
                    time_s: 35.0,
                    seq: 10,
                    kind: EventKind::MobilitySlot,
                },
                Event {
                    time_s: 60.0,
                    seq: 11,
                    kind: EventKind::ControlTick,
                },
                Event {
                    time_s: 90.0,
                    seq: 12,
                    kind: EventKind::ScheduledReconcile { index: 0 },
                },
                Event {
                    time_s: 40.0,
                    seq: 13,
                    kind: EventKind::FaultTransition { index: 0 },
                },
                Event {
                    time_s: 41.5,
                    seq: 14,
                    kind: EventKind::RetryFill {
                        server: 1,
                        model: ModelId(2),
                        attempt: 3,
                    },
                },
            ],
            next_seq: 15,
            metrics,
            controller: None,
            mobility: Some(MobilityState {
                slot_seconds: 5.0,
                users: vec![MobileUser {
                    position: Point::new(10.0, 20.0),
                    speed_mps: 1.5,
                    orientation_rad: 0.75,
                    class: MobilityClass::Bike,
                }],
            }),
            last_target: Some(target),
            journal_offset: 777,
        };
        let mut second = region.clone();
        second.rng = [9, 8, 7, 6];
        second.journal_offset = 123;
        let server = ServerState {
            cache: CacheSnapshot {
                resident: vec![ModelId(0), ModelId(2)],
                last_access_s: vec![1.0, f64::NEG_INFINITY, 2.5],
                access_count: vec![3, 0, 1],
                pending: vec![false, true, false],
                pending_eta_s: vec![0.0, 42.5, 0.0],
                block_arrived: vec![true, false],
                block_eta_s: vec![0.0, 31.25],
                insertions: 4,
                evictions: 1,
            },
            inflight: vec![31.25, 33.0],
            down: true,
            degrade: 1.0,
        };
        let mut degraded = server.clone();
        degraded.inflight.clear();
        degraded.down = false;
        degraded.degrade = 0.5;
        Checkpoint {
            time_s: 30.0,
            policy: "lru".into(),
            config: ServeConfig {
                control: Some(ControlConfig::paper_defaults()),
                mobility_slot_s: 5.0,
                faults: Some(faults),
                ..ServeConfig::smoke()
            },
            workload: Workload {
                rate_hz: 0.2,
                starts_s: vec![0.0, 300.0],
                rows: 1,
                width: 2,
                cdfs: vec![0.5, 1.0, 0.25, 1.0],
                user_row: vec![0, 0],
            },
            positions: vec![Point::new(1.0, 2.0), Point::new(-0.0, 999.5)],
            primary: vec![Some(0), None],
            generation: vec![0, 2],
            scheduled: vec![(90.0, placement)],
            servers: vec![server, degraded],
            regions: vec![region, second],
        }
    }

    fn assert_corrupt(bytes: &[u8]) {
        assert!(matches!(
            Checkpoint::from_bytes(bytes),
            Err(PersistError::Corrupt { .. })
        ));
    }

    #[test]
    fn checkpoint_round_trips_byte_identically() {
        let cp = sample_checkpoint();
        let bytes = cp.to_bytes();
        let decoded = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, cp);
        // Re-encoding the decoded checkpoint reproduces the bytes exactly.
        assert_eq!(decoded.to_bytes(), bytes);
        assert_eq!(decoded.num_shards(), 2);
        assert_eq!(decoded.seed(), cp.config.seed);
        // The process-local persistence settings are never written.
        let mut with_persist = cp.clone();
        with_persist.config.persist = Some(crate::persist::PersistConfig::new("elsewhere"));
        assert_eq!(with_persist.to_bytes(), bytes);
    }

    #[test]
    fn file_round_trip_is_atomic_and_crc_guarded() {
        let path = temp_path("roundtrip.tcp");
        let cp = sample_checkpoint();
        cp.save(&path).unwrap();
        // The temp file was renamed away.
        assert!(!path.with_extension("tmp").exists());
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded, cp);
        assert_eq!(loaded.time_s(), 30.0);
        assert_eq!(loaded.policy(), "lru");

        // Flip a payload byte: the CRC catches it.
        let mut bytes = cp.to_bytes();
        bytes[20] ^= 0x01;
        assert_corrupt(&bytes);
        // Truncation is caught by the length check.
        assert_corrupt(&cp.to_bytes()[..30]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn structural_inconsistencies_are_corruption() {
        // No region at all, and a user drawing from a row no phase holds.
        let mut no_regions = sample_checkpoint();
        no_regions.regions.clear();
        let mut stray_row = sample_checkpoint();
        stray_row.workload.user_row[1] = 1;
        for cp in [no_regions, stray_row] {
            assert_corrupt(&cp.to_bytes());
        }
    }

    #[test]
    fn ragged_or_missing_workload_rows_are_corruption() {
        // Rate, starts, then one phase of rows with widths `widths`
        // (entries ending at 1), then two users on row 0.
        let image = |widths: &[usize]| {
            let mut e = Encoder::new();
            e.put(&1.0f64);
            e.put(&vec![0.0f64]);
            e.put(&1usize);
            e.put(&widths.len());
            for &w in widths {
                e.put(&w);
                for _ in 0..w {
                    e.put(&1.0f64);
                }
            }
            e.put(&vec![0u32, 0]);
            e.into_bytes()
        };
        assert!(decode::<Workload>(&image(&[2, 2]), "test").is_ok());
        for widths in [&[2, 3][..], &[], &[0]] {
            assert!(
                matches!(
                    decode::<Workload>(&image(widths), "test"),
                    Err(PersistError::Corrupt { .. })
                ),
                "{widths:?}"
            );
        }
    }

    #[test]
    fn a_placement_cannot_claim_more_servers_than_the_input_holds() {
        // Two models, then a server-list length of 2^40: the per-server
        // lists are a sequence, so the length is bounded by the input
        // instead of sizing an allocation.
        let mut e = Encoder::new();
        e.put(&2usize);
        e.put(&(1u64 << 40));
        e.put(&0u64);
        assert!(matches!(
            decode::<Placement>(&e.into_bytes(), "test"),
            Err(PersistError::Corrupt { .. })
        ));
        // A model id beyond the model count is rejected too.
        let mut p = Placement::empty(1, 3);
        p.place(ServerId(0), ModelId(2)).unwrap();
        let mut bytes = encode(&p);
        bytes[0] = 2; // model count 3 -> 2
        assert!(matches!(
            decode::<Placement>(&bytes, "test"),
            Err(PersistError::Corrupt { .. })
        ));
    }

    #[test]
    fn a_histogram_must_have_the_fixed_bucket_count() {
        let mut cp = sample_checkpoint();
        cp.regions[0].metrics.latency.buckets.clear();
        assert_corrupt(&cp.to_bytes());
        let mut cp = sample_checkpoint();
        cp.regions[1].metrics.latency_degraded.buckets.push(0);
        assert_corrupt(&cp.to_bytes());
    }

    #[test]
    fn controller_state_survives_the_trip() {
        let mut cp = sample_checkpoint();
        cp.regions[1].controller = Some(ControllerSnapshot {
            config: ControlConfig::paper_defaults(),
            estimator: EstimatorSnapshot {
                alpha: 0.4,
                num_users: 2,
                num_models: 3,
                epoch_log: vec![1, 0, 2, 0, 0, 4],
                rates: vec![0.5, 0.0, 1.25, 0.0, 0.0, 2.0],
                scale: 1e-3,
                primed: true,
                total_requests: 7,
                epochs_rolled: 3,
            },
            drift: DriftSnapshot {
                config: DriftConfig::paper_defaults(),
                reference_hit: Some(0.625),
                reference_p95: None,
                degraded_ticks: 1,
                pre_drift_reference: Some(0.7),
                last_replan_s: Some(120.0),
                recovery: Some((120.0, 0.7)),
            },
            seen_requests: 9,
            seen_hits: 5,
            seen_latency: LatencyHistogram::new(),
        });
        assert_eq!(Checkpoint::from_bytes(&cp.to_bytes()).unwrap(), cp);
    }
}

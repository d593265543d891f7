//! Full engine-state checkpoints at slot boundaries.
//!
//! A checkpoint is everything a run needs to continue: the request
//! workload (rate, phase starts, the CDFs of each phase's distinct
//! popularity rows and the user→row map), and per region everything
//! the engine mutates — the simulation clock, RNG state words, the
//! pending event queue, user positions and mobility kinematics,
//! per-server cache contents and in-flight backhaul transfers, the
//! cumulative metrics, the controller (estimator epoch log and drift
//! windows), staged reconciliations, and the journal byte offset the
//! checkpoint corresponds to. Restoring it and replaying the journal
//! suffix reproduces the uninterrupted run byte for byte.
//!
//! File layout: 4-byte magic (`TCKP`), a format-version byte, a `u32`
//! payload length, the payload (the workload section, a `u32` region
//! count, one state per region), and a CRC-32 of the payload. Writes go
//! to a temp file in the same directory and are renamed into place, so
//! a crash mid-checkpoint leaves the previous checkpoint intact.

use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;

use trimcaching_modellib::ModelId;
use trimcaching_scenario::mobility::{MobileUser, MobilityClass};
use trimcaching_scenario::{Placement, ServerId, UserId};
use trimcaching_wireless::geometry::Point;

use super::wire::{crc32, Decoder, Encoder};
use super::PersistError;
use crate::cache::CacheSnapshot;
use crate::control::drift::DriftSnapshot;
use crate::control::estimator::EstimatorSnapshot;
use crate::control::{ControlConfig, ControllerSnapshot, DriftConfig};
use crate::engine::{FillGranularity, ServeConfig};
use crate::event::Event;
use crate::event::EventKind;
use crate::faults::{FaultConfig, FaultKind, FaultSpec, RecoveryMode};
use crate::metrics::{LatencyHistogram, ServeMetrics, WindowPoint};
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
pub(crate) const CHECKPOINT_VERSION: u8 = 5;

/// Mobility kinematics captured alongside the radio snapshot.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MobilityState {
    /// Slot length of the mobility model in seconds.
    pub slot_seconds: f64,
    /// Per-user kinematic state (position, speed, heading, class).
    pub users: Vec<MobileUser>,
}

/// The complete mutable state of one region engine at a slot boundary,
/// plus the run's shared positions, primary servers and request
/// generations (the same in every region's state).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CheckpointState {
    /// Simulated time of the boundary.
    pub time_s: f64,
    /// Name of the eviction policy driving the run.
    pub policy: String,
    /// The run's configuration (persistence settings excluded — they
    /// belong to the process, not the simulated state).
    pub config: ServeConfig,
    /// xoshiro256++ state words of the run's RNG.
    pub rng: [u64; 4],
    /// Pending events in firing order.
    pub events: Vec<Event>,
    /// Next event sequence number.
    pub next_seq: u64,
    /// Current user positions.
    pub positions: Vec<Point>,
    /// Per-user primary server (`None` = uncovered).
    pub primary: Vec<Option<u64>>,
    /// Per-user request generation (bumped on every migration).
    pub generation: Vec<u32>,
    /// Per-server cache state.
    pub caches: Vec<CacheSnapshot>,
    /// Per-server in-flight backhaul transfer finish times.
    pub links: Vec<Vec<f64>>,
    /// Cumulative metrics at the boundary.
    pub metrics: ServeMetrics,
    /// Controller state, when the control loop is on.
    pub controller: Option<ControllerSnapshot>,
    /// Staged oracle reconciliations still pending.
    pub scheduled: Vec<(f64, Placement)>,
    /// Mobility kinematics, when mobility is on.
    pub mobility: Option<MobilityState>,
    /// Per-server down mask at the boundary (all false when fault
    /// injection is off).
    pub server_down: Vec<bool>,
    /// Per-server backhaul link degradation factors (1.0 = nominal).
    pub link_degrades: Vec<f64>,
    /// The placement the engine last reconciled toward — the target
    /// self-healing re-replication restores a recovering server to.
    pub last_target: Option<Placement>,
    /// Journal length in bytes at the boundary: records at or before
    /// this offset are already reflected in the checkpoint.
    pub journal_offset: u64,
}

/// A loaded (or about-to-be-written) checkpoint file.
///
/// A checkpoint holds the run's workload once and one engine state
/// **per shard** — a classic single-threaded run writes exactly one.
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
    /// The run's request workload, shared by every shard.
    pub(crate) workload: Workload,
    /// One state per shard, shard-id order; never empty.
    pub(crate) shards: Vec<CheckpointState>,
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
        let mut payload_enc = Encoder::new();
        encode_workload(&mut payload_enc, &self.workload);
        payload_enc.put_u32(self.shards.len() as u32);
        for state in &self.shards {
            encode_state_into(&mut payload_enc, state);
        }
        let payload = payload_enc.into_bytes();
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
        let mut d = Decoder::new(payload, "checkpoint state");
        let workload = decode_workload(&mut d)?;
        let num_shards = d.get_u32()?;
        if num_shards == 0 {
            return Err(PersistError::Corrupt {
                context: "checkpoint: zero shard count".into(),
            });
        }
        let shards = (0..num_shards)
            .map(|_| decode_state_from(&mut d))
            .collect::<Result<Vec<_>, PersistError>>()?;
        d.finish()?;
        Ok(Self { workload, shards })
    }

    /// Number of engine shards this checkpoint captures (1 for a
    /// classic single-threaded run).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Simulated time of the boundary this checkpoint captures.
    pub fn time_s(&self) -> f64 {
        self.shards[0].time_s
    }

    /// Name of the eviction policy the checkpointed run was using.
    pub fn policy(&self) -> &str {
        &self.shards[0].policy
    }

    /// RNG seed of the checkpointed run (shard 0's seed for a sharded
    /// run — the run seed; shard `s` runs on seed + `s`).
    pub fn seed(&self) -> u64 {
        self.shards[0].config.seed
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

fn granularity_tag(g: FillGranularity) -> u8 {
    match g {
        FillGranularity::WholeModel => 0,
        FillGranularity::Block => 1,
    }
}

fn granularity_from_tag(tag: u8) -> Result<FillGranularity, PersistError> {
    match tag {
        0 => Ok(FillGranularity::WholeModel),
        1 => Ok(FillGranularity::Block),
        other => Err(PersistError::Corrupt {
            context: format!("checkpoint: unknown fill granularity tag {other}"),
        }),
    }
}

fn put_opt_f64(e: &mut Encoder, v: Option<f64>) {
    match v {
        Some(v) => {
            e.put_bool(true);
            e.put_f64(v);
        }
        None => e.put_bool(false),
    }
}

fn get_opt_f64(d: &mut Decoder<'_>) -> Result<Option<f64>, PersistError> {
    Ok(if d.get_bool()? {
        Some(d.get_f64()?)
    } else {
        None
    })
}

fn encode_config(e: &mut Encoder, c: &ServeConfig) {
    e.put_f64(c.duration_s);
    e.put_f64(c.request_rate_hz);
    e.put_f64(c.window_s);
    e.put_f64(c.cloud_fetch_penalty_s);
    e.put_f64(c.mobility_slot_s);
    e.put_f64(c.area_side_m);
    e.put_u8(granularity_tag(c.granularity));
    e.put_f64(c.cloud_ingest_bps);
    e.put_bool(c.congestion_aware);
    match &c.control {
        Some(ctl) => {
            e.put_bool(true);
            e.put_f64(ctl.tick_s);
            e.put_f64(ctl.estimator_alpha);
            e.put_u64(ctl.min_observed_requests);
            encode_drift_config(e, &ctl.drift);
        }
        None => e.put_bool(false),
    }
    match &c.faults {
        Some(fc) => {
            e.put_bool(true);
            encode_fault_config(e, fc);
        }
        None => e.put_bool(false),
    }
    e.put_u64(c.seed);
}

fn encode_fault_config(e: &mut Encoder, fc: &FaultConfig) {
    match fc.recovery {
        RecoveryMode::Intact => e.put_u8(0),
        RecoveryMode::Cold => e.put_u8(1),
        RecoveryMode::Partial { keep_fraction } => {
            e.put_u8(2);
            e.put_f64(keep_fraction);
        }
    }
    e.put_bool(fc.failover);
    e.put_u32(fc.max_fill_retries);
    e.put_f64(fc.retry_backoff_s);
    e.put_f64(fc.retry_backoff_cap_s);
    e.put_f64(fc.retry_jitter);
    e.put_seq_len(fc.timeline.len());
    for spec in &fc.timeline {
        e.put_f64(spec.at_s);
        match spec.kind {
            FaultKind::ServerDown { server } => {
                e.put_u8(0);
                e.put_u64(server as u64);
            }
            FaultKind::ServerUp { server } => {
                e.put_u8(1);
                e.put_u64(server as u64);
            }
            FaultKind::LinkDegraded { server, factor } => {
                e.put_u8(2);
                e.put_u64(server as u64);
                e.put_f64(factor);
            }
            FaultKind::LinkRestored { server } => {
                e.put_u8(3);
                e.put_u64(server as u64);
            }
        }
    }
}

fn decode_fault_config(d: &mut Decoder<'_>) -> Result<FaultConfig, PersistError> {
    let recovery = match d.get_u8()? {
        0 => RecoveryMode::Intact,
        1 => RecoveryMode::Cold,
        2 => RecoveryMode::Partial {
            keep_fraction: d.get_f64()?,
        },
        other => {
            return Err(PersistError::Corrupt {
                context: format!("checkpoint: unknown recovery mode tag {other}"),
            })
        }
    };
    let failover = d.get_bool()?;
    let max_fill_retries = d.get_u32()?;
    let retry_backoff_s = d.get_f64()?;
    let retry_backoff_cap_s = d.get_f64()?;
    let retry_jitter = d.get_f64()?;
    let n = d.get_seq_len()?;
    let timeline = (0..n)
        .map(|_| {
            let at_s = d.get_f64()?;
            let kind = match d.get_u8()? {
                0 => FaultKind::ServerDown {
                    server: d.get_u64()? as usize,
                },
                1 => FaultKind::ServerUp {
                    server: d.get_u64()? as usize,
                },
                2 => FaultKind::LinkDegraded {
                    server: d.get_u64()? as usize,
                    factor: d.get_f64()?,
                },
                3 => FaultKind::LinkRestored {
                    server: d.get_u64()? as usize,
                },
                other => {
                    return Err(PersistError::Corrupt {
                        context: format!("checkpoint: unknown fault kind tag {other}"),
                    })
                }
            };
            Ok(FaultSpec { at_s, kind })
        })
        .collect::<Result<Vec<_>, PersistError>>()?;
    Ok(FaultConfig {
        timeline,
        recovery,
        failover,
        max_fill_retries,
        retry_backoff_s,
        retry_backoff_cap_s,
        retry_jitter,
    })
}

fn decode_config(d: &mut Decoder<'_>) -> Result<ServeConfig, PersistError> {
    let duration_s = d.get_f64()?;
    let request_rate_hz = d.get_f64()?;
    let window_s = d.get_f64()?;
    let cloud_fetch_penalty_s = d.get_f64()?;
    let mobility_slot_s = d.get_f64()?;
    let area_side_m = d.get_f64()?;
    let granularity = granularity_from_tag(d.get_u8()?)?;
    let cloud_ingest_bps = d.get_f64()?;
    let congestion_aware = d.get_bool()?;
    let control = if d.get_bool()? {
        Some(ControlConfig {
            tick_s: d.get_f64()?,
            estimator_alpha: d.get_f64()?,
            min_observed_requests: d.get_u64()?,
            drift: decode_drift_config(d)?,
        })
    } else {
        None
    };
    let faults = if d.get_bool()? {
        Some(decode_fault_config(d)?)
    } else {
        None
    };
    let seed = d.get_u64()?;
    Ok(ServeConfig {
        duration_s,
        request_rate_hz,
        window_s,
        cloud_fetch_penalty_s,
        mobility_slot_s,
        area_side_m,
        granularity,
        cloud_ingest_bps,
        congestion_aware,
        control,
        faults,
        seed,
        persist: None,
    })
}

fn encode_drift_config(e: &mut Encoder, c: &DriftConfig) {
    e.put_f64(c.degradation);
    e.put_f64(c.latency_rise);
    e.put_u32(c.patience);
    e.put_f64(c.reference_alpha);
    e.put_f64(c.replan_every_s);
    e.put_f64(c.cooldown_s);
}

fn decode_drift_config(d: &mut Decoder<'_>) -> Result<DriftConfig, PersistError> {
    Ok(DriftConfig {
        degradation: d.get_f64()?,
        latency_rise: d.get_f64()?,
        patience: d.get_u32()?,
        reference_alpha: d.get_f64()?,
        replan_every_s: d.get_f64()?,
        cooldown_s: d.get_f64()?,
    })
}

fn encode_event(e: &mut Encoder, event: &Event) {
    e.put_f64(event.time_s);
    e.put_u64(event.seq);
    match event.kind {
        EventKind::Request { user, generation } => {
            e.put_u8(0);
            e.put_u64(user.0 as u64);
            e.put_u32(generation);
        }
        EventKind::MobilitySlot => e.put_u8(1),
        EventKind::TransferComplete { server, model } => {
            e.put_u8(2);
            e.put_u64(server as u64);
            e.put_u64(model.0 as u64);
        }
        EventKind::ControlTick => e.put_u8(3),
        EventKind::ScheduledReconcile { index } => {
            e.put_u8(4);
            e.put_u64(index as u64);
        }
        EventKind::FaultTransition { index } => {
            e.put_u8(5);
            e.put_u64(index as u64);
        }
        EventKind::RetryFill {
            server,
            model,
            attempt,
        } => {
            e.put_u8(6);
            e.put_u64(server as u64);
            e.put_u64(model.0 as u64);
            e.put_u32(attempt);
        }
    }
}

fn decode_event(d: &mut Decoder<'_>) -> Result<Event, PersistError> {
    let time_s = d.get_f64()?;
    let seq = d.get_u64()?;
    let kind = match d.get_u8()? {
        0 => EventKind::Request {
            user: UserId(d.get_u64()? as usize),
            generation: d.get_u32()?,
        },
        1 => EventKind::MobilitySlot,
        2 => EventKind::TransferComplete {
            server: d.get_u64()? as usize,
            model: ModelId(d.get_u64()? as usize),
        },
        3 => EventKind::ControlTick,
        4 => EventKind::ScheduledReconcile {
            index: d.get_u64()? as usize,
        },
        5 => EventKind::FaultTransition {
            index: d.get_u64()? as usize,
        },
        6 => EventKind::RetryFill {
            server: d.get_u64()? as usize,
            model: ModelId(d.get_u64()? as usize),
            attempt: d.get_u32()?,
        },
        other => {
            return Err(PersistError::Corrupt {
                context: format!("checkpoint: unknown event kind tag {other}"),
            })
        }
    };
    Ok(Event { time_s, seq, kind })
}

fn encode_cache(e: &mut Encoder, c: &CacheSnapshot) {
    e.put_seq_len(c.resident.len());
    for m in &c.resident {
        e.put_u64(m.0 as u64);
    }
    e.put_f64_slice(&c.last_access_s);
    e.put_u64_slice(&c.access_count);
    e.put_bool_slice(&c.pending);
    e.put_f64_slice(&c.pending_eta_s);
    e.put_bool_slice(&c.block_arrived);
    e.put_f64_slice(&c.block_eta_s);
    e.put_u64(c.insertions);
    e.put_u64(c.evictions);
}

fn decode_cache(d: &mut Decoder<'_>) -> Result<CacheSnapshot, PersistError> {
    let n = d.get_seq_len()?;
    let resident = (0..n)
        .map(|_| Ok(ModelId(d.get_u64()? as usize)))
        .collect::<Result<Vec<_>, PersistError>>()?;
    Ok(CacheSnapshot {
        resident,
        last_access_s: d.get_f64_vec()?,
        access_count: d.get_u64_vec()?,
        pending: d.get_bool_vec()?,
        pending_eta_s: d.get_f64_vec()?,
        block_arrived: d.get_bool_vec()?,
        block_eta_s: d.get_f64_vec()?,
        insertions: d.get_u64()?,
        evictions: d.get_u64()?,
    })
}

fn encode_histogram(e: &mut Encoder, h: &LatencyHistogram) {
    e.put_u64_slice(h.raw_buckets());
    e.put_u64(h.count());
}

fn decode_histogram(d: &mut Decoder<'_>) -> Result<LatencyHistogram, PersistError> {
    let buckets = d.get_u64_vec()?;
    let count = d.get_u64()?;
    Ok(LatencyHistogram::from_raw(buckets, count))
}

fn encode_metrics(e: &mut Encoder, m: &ServeMetrics) {
    for v in [
        m.requests,
        m.hits,
        m.misses_served,
        m.rejected,
        m.bytes_downloaded,
        m.backhaul_bytes_moved,
        m.transfers_started,
        m.fills_completed,
        m.peak_transfer_queue_depth,
        m.transfer_queue_depth_sum,
        m.block_requests,
        m.block_hits,
        m.insertions,
        m.evictions,
        m.snapshot_rebuilds,
        m.users_refreshed,
        m.handovers,
        m.control_ticks,
        m.replans_triggered,
        m.replans_drift,
        m.reconcile_fills_started,
        m.reconcile_bytes_moved,
        m.reconcile_evictions,
        m.recoveries,
        m.faults_injected,
        m.faults_recovered,
        m.requests_failed,
        m.requests_failed_over,
        m.fills_aborted,
        m.fill_retries,
        m.models_lost,
    ] {
        e.put_u64(v);
    }
    e.put_f64(m.transfer_seconds);
    e.put_f64(m.recovery_seconds);
    encode_histogram(e, &m.latency);
    encode_histogram(e, &m.latency_degraded);
    let (windows, window_s, window_end_s, window_requests, window_hits, last_event_s) =
        m.window_state();
    e.put_seq_len(windows.len());
    for w in windows {
        e.put_f64(w.end_s);
        e.put_u64(w.requests);
        e.put_u64(w.hits);
    }
    e.put_f64(window_s);
    e.put_f64(window_end_s);
    e.put_u64(window_requests);
    e.put_u64(window_hits);
    e.put_f64(last_event_s);
}

fn decode_metrics(d: &mut Decoder<'_>) -> Result<ServeMetrics, PersistError> {
    let mut counters = [0u64; 31];
    for c in &mut counters {
        *c = d.get_u64()?;
    }
    let transfer_seconds = d.get_f64()?;
    let recovery_seconds = d.get_f64()?;
    let latency = decode_histogram(d)?;
    let latency_degraded = decode_histogram(d)?;
    let n = d.get_seq_len()?;
    let windows = (0..n)
        .map(|_| {
            Ok(WindowPoint {
                end_s: d.get_f64()?,
                requests: d.get_u64()?,
                hits: d.get_u64()?,
            })
        })
        .collect::<Result<Vec<_>, PersistError>>()?;
    let window_s = d.get_f64()?;
    let window_end_s = d.get_f64()?;
    let window_requests = d.get_u64()?;
    let window_hits = d.get_u64()?;
    let last_event_s = d.get_f64()?;
    if !(window_s.is_finite() && window_s > 0.0) {
        return Err(PersistError::Corrupt {
            context: format!("checkpoint: invalid metrics window length {window_s}"),
        });
    }
    let mut m = ServeMetrics::new(window_s);
    [
        m.requests,
        m.hits,
        m.misses_served,
        m.rejected,
        m.bytes_downloaded,
        m.backhaul_bytes_moved,
        m.transfers_started,
        m.fills_completed,
        m.peak_transfer_queue_depth,
        m.transfer_queue_depth_sum,
        m.block_requests,
        m.block_hits,
        m.insertions,
        m.evictions,
        m.snapshot_rebuilds,
        m.users_refreshed,
        m.handovers,
        m.control_ticks,
        m.replans_triggered,
        m.replans_drift,
        m.reconcile_fills_started,
        m.reconcile_bytes_moved,
        m.reconcile_evictions,
        m.recoveries,
        m.faults_injected,
        m.faults_recovered,
        m.requests_failed,
        m.requests_failed_over,
        m.fills_aborted,
        m.fill_retries,
        m.models_lost,
    ] = counters;
    m.transfer_seconds = transfer_seconds;
    m.recovery_seconds = recovery_seconds;
    m.latency = latency;
    m.latency_degraded = latency_degraded;
    m.restore_window_state(
        windows,
        window_s,
        window_end_s,
        window_requests,
        window_hits,
        last_event_s,
    );
    Ok(m)
}

fn encode_controller(e: &mut Encoder, c: &ControllerSnapshot) {
    e.put_f64(c.config.tick_s);
    e.put_f64(c.config.estimator_alpha);
    e.put_u64(c.config.min_observed_requests);
    encode_drift_config(e, &c.config.drift);
    let est = &c.estimator;
    e.put_f64(est.alpha);
    e.put_u64(est.num_users);
    e.put_u64(est.num_models);
    e.put_seq_len(est.epoch_log.len());
    for &v in &est.epoch_log {
        e.put_u32(v);
    }
    e.put_f64_slice(&est.rates);
    e.put_f64(est.scale);
    e.put_bool(est.primed);
    e.put_u64(est.total_requests);
    e.put_u64(est.epochs_rolled);
    let drift = &c.drift;
    encode_drift_config(e, &drift.config);
    put_opt_f64(e, drift.reference_hit);
    put_opt_f64(e, drift.reference_p95);
    e.put_u32(drift.degraded_ticks);
    put_opt_f64(e, drift.pre_drift_reference);
    put_opt_f64(e, drift.last_replan_s);
    match drift.recovery {
        Some((a, b)) => {
            e.put_bool(true);
            e.put_f64(a);
            e.put_f64(b);
        }
        None => e.put_bool(false),
    }
    e.put_u64(c.seen_requests);
    e.put_u64(c.seen_hits);
    encode_histogram(e, &c.seen_latency);
}

fn decode_controller(d: &mut Decoder<'_>) -> Result<ControllerSnapshot, PersistError> {
    let config = ControlConfig {
        tick_s: d.get_f64()?,
        estimator_alpha: d.get_f64()?,
        min_observed_requests: d.get_u64()?,
        drift: decode_drift_config(d)?,
    };
    let alpha = d.get_f64()?;
    let num_users = d.get_u64()?;
    let num_models = d.get_u64()?;
    let n = d.get_seq_len()?;
    let epoch_log = (0..n)
        .map(|_| d.get_u32())
        .collect::<Result<Vec<_>, PersistError>>()?;
    let estimator = EstimatorSnapshot {
        alpha,
        num_users,
        num_models,
        epoch_log,
        rates: d.get_f64_vec()?,
        scale: d.get_f64()?,
        primed: d.get_bool()?,
        total_requests: d.get_u64()?,
        epochs_rolled: d.get_u64()?,
    };
    let drift = DriftSnapshot {
        config: decode_drift_config(d)?,
        reference_hit: get_opt_f64(d)?,
        reference_p95: get_opt_f64(d)?,
        degraded_ticks: d.get_u32()?,
        pre_drift_reference: get_opt_f64(d)?,
        last_replan_s: get_opt_f64(d)?,
        recovery: if d.get_bool()? {
            Some((d.get_f64()?, d.get_f64()?))
        } else {
            None
        },
    };
    Ok(ControllerSnapshot {
        config,
        estimator,
        drift,
        seen_requests: d.get_u64()?,
        seen_hits: d.get_u64()?,
        seen_latency: decode_histogram(d)?,
    })
}

fn encode_placement(e: &mut Encoder, p: &Placement) {
    e.put_u64(p.num_servers() as u64);
    e.put_u64(p.num_models() as u64);
    let pairs: Vec<(ServerId, ModelId)> = p.iter().collect();
    e.put_seq_len(pairs.len());
    for (s, m) in pairs {
        e.put_u64(s.index() as u64);
        e.put_u64(m.0 as u64);
    }
}

fn decode_placement(d: &mut Decoder<'_>) -> Result<Placement, PersistError> {
    let num_servers = d.get_u64()? as usize;
    let num_models = d.get_u64()? as usize;
    let mut p = Placement::empty(num_servers, num_models);
    let n = d.get_seq_len()?;
    for _ in 0..n {
        let server = ServerId(d.get_u64()? as usize);
        let model = ModelId(d.get_u64()? as usize);
        p.place(server, model).map_err(|e| PersistError::Corrupt {
            context: format!("checkpoint: invalid placement entry: {e}"),
        })?;
    }
    Ok(p)
}

fn class_tag(c: MobilityClass) -> u8 {
    match c {
        MobilityClass::Pedestrian => 0,
        MobilityClass::Bike => 1,
        MobilityClass::Vehicle => 2,
    }
}

fn class_from_tag(tag: u8) -> Result<MobilityClass, PersistError> {
    match tag {
        0 => Ok(MobilityClass::Pedestrian),
        1 => Ok(MobilityClass::Bike),
        2 => Ok(MobilityClass::Vehicle),
        other => Err(PersistError::Corrupt {
            context: format!("checkpoint: unknown mobility class tag {other}"),
        }),
    }
}

/// Encodes one engine state as a standalone buffer (test helper; the
/// file payload concatenates shard states via [`encode_state_into`]).
#[cfg(test)]
pub(crate) fn encode_state(s: &CheckpointState) -> Vec<u8> {
    let mut e = Encoder::new();
    encode_state_into(&mut e, s);
    e.into_bytes()
}

/// The workload section: rate, phase starts, each phase's distinct-row
/// CDFs, then the user→row map.
fn encode_workload(e: &mut Encoder, w: &Workload) {
    e.put_f64(w.rate_hz);
    e.put_f64_slice(&w.starts_s);
    e.put_seq_len(w.phases.len());
    for phase in &w.phases {
        e.put_seq_len(phase.len());
        for cdf in phase {
            e.put_f64_slice(cdf);
        }
    }
    e.put_seq_len(w.user_row.len());
    for &r in &w.user_row {
        e.put_u32(r);
    }
}

fn decode_workload(d: &mut Decoder<'_>) -> Result<Workload, PersistError> {
    let rate_hz = d.get_f64()?;
    let starts_s = d.get_f64_vec()?;
    let n = d.get_seq_len()?;
    let phases = (0..n)
        .map(|_| {
            let rows = d.get_seq_len()?;
            (0..rows)
                .map(|_| d.get_f64_vec())
                .collect::<Result<Vec<_>, PersistError>>()
        })
        .collect::<Result<Vec<_>, PersistError>>()?;
    let n = d.get_seq_len()?;
    let user_row = (0..n)
        .map(|_| d.get_u32())
        .collect::<Result<Vec<_>, PersistError>>()?;
    // Every phase must hold every row a user can draw from.
    let rows = phases.first().map_or(0, Vec::len);
    if starts_s.len() != phases.len()
        || phases.iter().any(|phase| phase.len() != rows)
        || user_row.iter().any(|&r| r as usize >= rows)
    {
        return Err(PersistError::Corrupt {
            context: "checkpoint: inconsistent workload section".into(),
        });
    }
    Ok(Workload {
        rate_hz,
        starts_s,
        phases,
        user_row,
    })
}

pub(crate) fn encode_state_into(e: &mut Encoder, s: &CheckpointState) {
    e.put_f64(s.time_s);
    e.put_str(&s.policy);
    encode_config(e, &s.config);
    for w in s.rng {
        e.put_u64(w);
    }
    e.put_seq_len(s.events.len());
    for ev in &s.events {
        encode_event(e, ev);
    }
    e.put_u64(s.next_seq);
    e.put_seq_len(s.positions.len());
    for p in &s.positions {
        e.put_f64(p.x);
        e.put_f64(p.y);
    }
    e.put_seq_len(s.primary.len());
    for p in &s.primary {
        match p {
            Some(m) => e.put_i64(*m as i64),
            None => e.put_i64(-1),
        }
    }
    e.put_seq_len(s.generation.len());
    for &g in &s.generation {
        e.put_u32(g);
    }
    e.put_seq_len(s.caches.len());
    for c in &s.caches {
        encode_cache(e, c);
    }
    e.put_seq_len(s.links.len());
    for l in &s.links {
        e.put_f64_slice(l);
    }
    encode_metrics(e, &s.metrics);
    match &s.controller {
        Some(c) => {
            e.put_bool(true);
            encode_controller(e, c);
        }
        None => e.put_bool(false),
    }
    e.put_seq_len(s.scheduled.len());
    for (at_s, placement) in &s.scheduled {
        e.put_f64(*at_s);
        encode_placement(e, placement);
    }
    match &s.mobility {
        Some(m) => {
            e.put_bool(true);
            e.put_f64(m.slot_seconds);
            e.put_seq_len(m.users.len());
            for u in &m.users {
                e.put_f64(u.position.x);
                e.put_f64(u.position.y);
                e.put_f64(u.speed_mps);
                e.put_f64(u.orientation_rad);
                e.put_u8(class_tag(u.class));
            }
        }
        None => e.put_bool(false),
    }
    e.put_bool_slice(&s.server_down);
    e.put_f64_slice(&s.link_degrades);
    match &s.last_target {
        Some(p) => {
            e.put_bool(true);
            encode_placement(e, p);
        }
        None => e.put_bool(false),
    }
    e.put_u64(s.journal_offset);
}

/// Decodes one engine state from a standalone buffer (test helper).
#[cfg(test)]
pub(crate) fn decode_state(payload: &[u8]) -> Result<CheckpointState, PersistError> {
    let mut d = Decoder::new(payload, "checkpoint state");
    let state = decode_state_from(&mut d)?;
    d.finish()?;
    Ok(state)
}

pub(crate) fn decode_state_from(d: &mut Decoder<'_>) -> Result<CheckpointState, PersistError> {
    let time_s = d.get_f64()?;
    let policy = d.get_str()?;
    let config = decode_config(d)?;
    let mut rng = [0u64; 4];
    for w in &mut rng {
        *w = d.get_u64()?;
    }
    let n = d.get_seq_len()?;
    let events = (0..n)
        .map(|_| decode_event(d))
        .collect::<Result<Vec<_>, PersistError>>()?;
    let next_seq = d.get_u64()?;
    let n = d.get_seq_len()?;
    let positions = (0..n)
        .map(|_| Ok(Point::new(d.get_f64()?, d.get_f64()?)))
        .collect::<Result<Vec<_>, PersistError>>()?;
    let n = d.get_seq_len()?;
    let primary = (0..n)
        .map(|_| {
            let v = d.get_i64()?;
            Ok(if v < 0 { None } else { Some(v as u64) })
        })
        .collect::<Result<Vec<_>, PersistError>>()?;
    let n = d.get_seq_len()?;
    let generation = (0..n)
        .map(|_| d.get_u32())
        .collect::<Result<Vec<_>, PersistError>>()?;
    let n = d.get_seq_len()?;
    let caches = (0..n)
        .map(|_| decode_cache(d))
        .collect::<Result<Vec<_>, PersistError>>()?;
    let n = d.get_seq_len()?;
    let links = (0..n)
        .map(|_| d.get_f64_vec())
        .collect::<Result<Vec<_>, PersistError>>()?;
    let metrics = decode_metrics(d)?;
    let controller = if d.get_bool()? {
        Some(decode_controller(d)?)
    } else {
        None
    };
    let n = d.get_seq_len()?;
    let scheduled = (0..n)
        .map(|_| {
            let at_s = d.get_f64()?;
            let placement = decode_placement(d)?;
            Ok((at_s, placement))
        })
        .collect::<Result<Vec<_>, PersistError>>()?;
    let mobility = if d.get_bool()? {
        let slot_seconds = d.get_f64()?;
        let n = d.get_seq_len()?;
        let users = (0..n)
            .map(|_| {
                Ok(MobileUser {
                    position: Point::new(d.get_f64()?, d.get_f64()?),
                    speed_mps: d.get_f64()?,
                    orientation_rad: d.get_f64()?,
                    class: class_from_tag(d.get_u8()?)?,
                })
            })
            .collect::<Result<Vec<_>, PersistError>>()?;
        Some(MobilityState {
            slot_seconds,
            users,
        })
    } else {
        None
    };
    let server_down = d.get_bool_vec()?;
    let link_degrades = d.get_f64_vec()?;
    let last_target = if d.get_bool()? {
        Some(decode_placement(d)?)
    } else {
        None
    };
    let journal_offset = d.get_u64()?;
    Ok(CheckpointState {
        time_s,
        policy,
        config,
        rng,
        events,
        next_seq,
        positions,
        primary,
        generation,
        caches,
        links,
        metrics,
        controller,
        scheduled,
        mobility,
        server_down,
        link_degrades,
        last_target,
        journal_offset,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RequestOutcome;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tc-checkpoint-{}-{name}", std::process::id()))
    }

    fn sample_state() -> CheckpointState {
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
        CheckpointState {
            time_s: 30.0,
            policy: "lru".into(),
            config: ServeConfig {
                control: Some(ControlConfig::paper_defaults()),
                mobility_slot_s: 5.0,
                faults: Some(faults),
                ..ServeConfig::smoke()
            },
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
            positions: vec![Point::new(1.0, 2.0), Point::new(-0.0, 999.5)],
            primary: vec![Some(0), None],
            generation: vec![0, 2],
            caches: vec![CacheSnapshot {
                resident: vec![ModelId(0), ModelId(2)],
                last_access_s: vec![1.0, f64::NEG_INFINITY, 2.5],
                access_count: vec![3, 0, 1],
                pending: vec![false, true, false],
                pending_eta_s: vec![0.0, 42.5, 0.0],
                block_arrived: vec![true, false],
                block_eta_s: vec![0.0, 31.25],
                insertions: 4,
                evictions: 1,
            }],
            links: vec![vec![31.25, 33.0], vec![]],
            metrics,
            controller: None,
            scheduled: vec![(90.0, placement)],
            mobility: Some(MobilityState {
                slot_seconds: 5.0,
                users: vec![MobileUser {
                    position: Point::new(10.0, 20.0),
                    speed_mps: 1.5,
                    orientation_rad: 0.75,
                    class: MobilityClass::Bike,
                }],
            }),
            server_down: vec![true, false],
            link_degrades: vec![1.0, 0.5],
            last_target: Some(target),
            journal_offset: 777,
        }
    }

    fn sample_workload() -> Workload {
        Workload {
            rate_hz: 0.2,
            starts_s: vec![0.0, 300.0],
            phases: vec![vec![vec![0.5, 1.0]], vec![vec![0.25, 1.0]]],
            user_row: vec![0, 0],
        }
    }

    #[test]
    fn state_round_trips_byte_identically() {
        let state = sample_state();
        let bytes = encode_state(&state);
        let decoded = decode_state(&bytes).unwrap();
        assert_eq!(decoded, state);
        // Re-encoding the decoded state reproduces the bytes exactly.
        assert_eq!(encode_state(&decoded), bytes);
    }

    #[test]
    fn file_round_trip_is_atomic_and_crc_guarded() {
        let path = temp_path("roundtrip.tcp");
        let cp = Checkpoint {
            workload: sample_workload(),
            shards: vec![sample_state()],
        };
        cp.save(&path).unwrap();
        // The temp file was renamed away.
        assert!(!path.with_extension("tmp").exists());
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded, cp);
        assert_eq!(loaded.num_shards(), 1);
        assert_eq!(loaded.time_s(), 30.0);
        assert_eq!(loaded.policy(), "lru");
        assert_eq!(loaded.seed(), cp.shards[0].config.seed);

        // Flip a payload byte: the CRC catches it.
        let mut bytes = cp.to_bytes();
        bytes[20] ^= 0x01;
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(PersistError::Corrupt { .. })
        ));
        // Truncation is caught by the length check.
        let short = &cp.to_bytes()[..30];
        assert!(matches!(
            Checkpoint::from_bytes(short),
            Err(PersistError::Corrupt { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn multi_shard_checkpoints_round_trip() {
        let mut second = sample_state();
        second.config.seed += 1;
        second.rng = [9, 8, 7, 6];
        second.journal_offset = 123;
        let cp = Checkpoint {
            workload: sample_workload(),
            shards: vec![sample_state(), second],
        };
        let loaded = Checkpoint::from_bytes(&cp.to_bytes()).unwrap();
        assert_eq!(loaded, cp);
        assert_eq!(loaded.num_shards(), 2);
        assert_eq!(loaded.seed(), cp.shards[0].config.seed);

        // A zero shard count and a user drawing from a row no phase
        // holds are structural corruption.
        let mut stray_row = sample_workload();
        stray_row.user_row[1] = 1;
        for (workload, shards) in [(sample_workload(), 0), (stray_row, 1)] {
            let mut e = Encoder::new();
            encode_workload(&mut e, &workload);
            e.put_u32(shards);
            for _ in 0..shards {
                encode_state_into(&mut e, &sample_state());
            }
            let payload = e.into_bytes();
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&CHECKPOINT_MAGIC);
            bytes.push(CHECKPOINT_VERSION);
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&payload);
            bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
            assert!(matches!(
                Checkpoint::from_bytes(&bytes),
                Err(PersistError::Corrupt { .. })
            ));
        }
    }

    #[test]
    fn controller_state_survives_the_trip() {
        let mut state = sample_state();
        state.controller = Some(ControllerSnapshot {
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
        let bytes = encode_state(&state);
        assert_eq!(decode_state(&bytes).unwrap(), state);
    }
}

//! Durable serving runs: event journal, slot-boundary checkpoints and
//! byte-identical resume.
//!
//! Long city-scale runs are all-or-nothing in memory without this
//! module: a crash at simulated hour 40 loses everything, and a
//! finished run cannot be re-analysed or forked. Because the engine is
//! already a pure function of `(scenario, policy, config, workload)`
//! with a single seeded RNG, the classic event-sourcing idiom
//! (checkpoint + replay-events-after-checkpoint) applies directly:
//!
//! * [`wire`] — a length-prefixed binary codec behind one
//!   [`Wire`](wire::Wire) trait: every persisted type has exactly one
//!   impl, so its layout is written once, and every value has exactly
//!   one byte representation, which is what makes "byte-identical" a
//!   checkable property rather than a hope. Framing adds a CRC-32.
//! * [`journal`] — an append-only log of served events. One framed,
//!   CRC-guarded [`ServedRecord`] per request, flushed at checkpoint
//!   boundaries; [`recompute_metrics`] rebuilds the hit-ratio windows
//!   and latency quantiles offline, bit-for-bit equal to the live run's
//!   [`ServeMetrics`](crate::metrics::ServeMetrics).
//! * [`checkpoint`] — a snapshot of the run's mutable state at a
//!   simulated-time boundary, each fact stored once: a run section
//!   (config, workload CDFs, user positions, primaries and generations,
//!   staged reconciliations), one state per server (cache contents,
//!   in-flight transfers, fault state), and per region only what the
//!   region owns (RNG words, pending event queue, metrics, controller,
//!   mobility kinematics). Checkpoints are written atomically (a temp
//!   file, then a rename) so a crash mid-checkpoint leaves the previous
//!   one intact.
//!
//! Resume loads the latest checkpoint, replays the journal suffix
//! against the re-simulated stream (any mismatch is a
//! [`PersistError::Diverged`] — the journal doubles as an integrity
//! check), and continues live. A torn final record (crash mid-write) is
//! detected by its CRC and truncated away; the run falls back to the
//! last valid checkpoint. Forking resumes one checkpoint under a
//! *different* eviction policy with journaling off — two forks of the
//! same checkpoint share an exact past and diverge deterministically.
//!
//! Wire-format stability is versioned: both file headers carry a format
//! version and a magic tag, and readers reject anything they do not
//! understand instead of misparsing it.

pub mod checkpoint;
pub mod journal;
pub mod wire;

use std::fmt;
use std::path::{Path, PathBuf};

use crate::error::RuntimeError;

pub use checkpoint::Checkpoint;
pub use journal::{read_journal, recompute_metrics, JournalHeader, ServedRecord};

/// Where and how often a serving run persists itself.
#[derive(Debug, Clone, PartialEq)]
pub struct PersistConfig {
    /// Directory holding the run's journal and checkpoint files
    /// (created if missing).
    pub dir: PathBuf,
    /// Simulated seconds between checkpoints. Checkpoints land on the
    /// multiples of this interval, after every event at or before the
    /// boundary has fired — the "slot boundaries" a resumed run can
    /// restart from.
    pub checkpoint_every_s: f64,
    /// Whether checkpoint writes `fsync` before the atomic rename.
    ///
    /// Off (the default), a checkpoint survives any *process* crash —
    /// the rename is atomic and the kernel holds the data — which is
    /// the failure model the resume tests exercise. Turn it on to also
    /// survive power loss, at the cost of a disk flush per checkpoint.
    pub fsync: bool,
}

impl PersistConfig {
    /// Persistence into `dir` with 60-second checkpoints.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            checkpoint_every_s: 60.0,
            fsync: false,
        }
    }

    /// Sets the checkpoint interval in simulated seconds.
    pub fn with_checkpoint_every_s(mut self, every_s: f64) -> Self {
        self.checkpoint_every_s = every_s;
        self
    }

    /// Sets whether checkpoints `fsync` before renaming into place
    /// (power-loss durability; off by default).
    pub fn with_fsync(mut self, fsync: bool) -> Self {
        self.fsync = fsync;
        self
    }

    /// Path of shard `shard`'s append-only journal. Every run journals
    /// per shard (a classic run is shard 0); the checkpoint file records
    /// one journal offset per shard.
    pub fn journal_shard_path(&self, shard: usize) -> PathBuf {
        self.dir.join(format!("journal_{shard}.tcj"))
    }

    /// Path of the run's (latest) checkpoint file.
    pub fn checkpoint_path(&self) -> PathBuf {
        self.dir.join("checkpoint.tcp")
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] for a non-positive or
    /// non-finite checkpoint interval.
    pub fn validate(&self) -> Result<(), RuntimeError> {
        if !(self.checkpoint_every_s.is_finite() && self.checkpoint_every_s > 0.0) {
            return Err(RuntimeError::InvalidConfig {
                reason: format!(
                    "checkpoint interval must be positive and finite, got {}",
                    self.checkpoint_every_s
                ),
            });
        }
        Ok(())
    }
}

/// Errors of the persistence layer.
///
/// I/O failures carry the offending path and the OS error text (the
/// underlying `std::io::Error` is not `Clone`, so it is captured as a
/// string to keep [`RuntimeError`] cloneable).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PersistError {
    /// An operating-system I/O failure.
    Io {
        /// The file the operation touched.
        path: String,
        /// The OS error text.
        detail: String,
    },
    /// A file failed structural validation: bad magic, unsupported
    /// version, length out of bounds, or a checkpoint CRC mismatch.
    Corrupt {
        /// What was being parsed and what was wrong.
        context: String,
    },
    /// The journal ends in a torn record (crash mid-write): the framed
    /// length or CRC of the final record does not check out. Recovery
    /// truncates the tail and falls back to the last valid checkpoint.
    TornRecord {
        /// Byte offset at which the torn record starts.
        offset: u64,
    },
    /// A resume was attempted against state that does not belong
    /// together (wrong policy, seed, or scenario dimensions).
    Mismatch {
        /// Description of the disagreement.
        reason: String,
    },
    /// The re-simulated stream disagreed with the journal during resume
    /// replay — the checkpoint, journal and inputs are not from the
    /// same run.
    Diverged {
        /// Simulated time of the disagreeing record.
        time_s: f64,
        /// What differed.
        detail: String,
    },
}

impl PersistError {
    pub(crate) fn io(path: &Path, e: std::io::Error) -> Self {
        PersistError::Io {
            path: path.display().to_string(),
            detail: e.to_string(),
        }
    }
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io { path, detail } => write!(f, "i/o error on {path}: {detail}"),
            PersistError::Corrupt { context } => write!(f, "corrupt persistence data: {context}"),
            PersistError::TornRecord { offset } => {
                write!(f, "torn journal record at byte offset {offset}")
            }
            PersistError::Mismatch { reason } => write!(f, "resume mismatch: {reason}"),
            PersistError::Diverged { time_s, detail } => {
                write!(
                    f,
                    "resume diverged from the journal at t={time_s}s: {detail}"
                )
            }
        }
    }
}

impl std::error::Error for PersistError {}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// 64-bit FNV-1a over a byte string.
    pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |hash, &byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn config_paths_and_validation() {
        let c = PersistConfig::new("/tmp/run").with_checkpoint_every_s(30.0);
        assert_eq!(
            c.journal_shard_path(0),
            PathBuf::from("/tmp/run/journal_0.tcj")
        );
        assert_eq!(
            c.checkpoint_path(),
            PathBuf::from("/tmp/run/checkpoint.tcp")
        );
        assert!(c.validate().is_ok());
        assert!(PersistConfig::new("/tmp/run")
            .with_checkpoint_every_s(0.0)
            .validate()
            .is_err());
        assert!(PersistConfig::new("/tmp/run")
            .with_checkpoint_every_s(f64::NAN)
            .validate()
            .is_err());
    }

    #[test]
    fn errors_display_their_context() {
        let torn = PersistError::TornRecord { offset: 42 };
        assert!(torn.to_string().contains("42"));
        let diverged = PersistError::Diverged {
            time_s: 7.5,
            detail: "outcome".into(),
        };
        assert!(diverged.to_string().contains("7.5"));
        let rt: RuntimeError = torn.into();
        assert!(matches!(rt, RuntimeError::Persist(_)));
        assert!(rt.to_string().contains("torn"));
        use std::error::Error;
        assert!(rt.source().is_some());
    }

    /// FNV-1a-64 over the code lines of the persist layout files:
    /// `//` comment lines, blank lines, indentation and each file's
    /// unit-test module are left out, so only a code edit moves it.
    fn layout_fingerprint() -> u64 {
        let sources = [
            include_str!("wire.rs"),
            include_str!("journal.rs"),
            include_str!("checkpoint.rs"),
        ];
        let mut code = String::new();
        for source in sources {
            let lines = source
                .lines()
                .map(str::trim)
                .take_while(|line| *line != "mod tests {")
                .filter(|line| !line.is_empty() && !line.starts_with("//"));
            for line in lines {
                code.push_str(line);
                code.push('\n');
            }
        }
        fnv1a(code.as_bytes())
    }

    #[test]
    fn layout_is_pinned_to_the_format_versions() {
        let live = (
            journal::JOURNAL_VERSION,
            checkpoint::CHECKPOINT_VERSION,
            layout_fingerprint(),
        );
        assert_eq!(
            live,
            (1, 6, 0xc330_1407_4213_d8b6),
            "the journal/checkpoint layout code changed: bump the version, then re-pin \
             (JOURNAL_VERSION, CHECKPOINT_VERSION, fingerprint) to ({}, {}, {:#018x})",
            live.0,
            live.1,
            live.2
        );
    }
}

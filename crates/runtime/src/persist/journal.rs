//! Append-only journal of served events.
//!
//! File layout: a 4-byte magic (`TCJL`), a format-version byte, then a
//! stream of framed records — `[len: u32][payload][crc32(payload): u32]`.
//! The first record is always the [`JournalHeader`]; every later record
//! is one [`ServedRecord`] per request, in serve order. Appends go
//! through a buffered writer that the engine flushes at checkpoint
//! boundaries, so after a crash the journal is a valid prefix plus at
//! most one torn record, which the CRC catches and the crate-internal
//! `recover_journal` truncates away.
//!
//! The journal is sufficient to recompute the run's request-level
//! metrics offline ([`recompute_metrics`]) and, paired with a
//! checkpoint, to verify that a resumed run re-serves exactly the
//! events the original run served.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use super::wire::{crc32, decode, encode, wire_enum, wire_struct, Encoder};
use super::PersistError;
use crate::engine::FillGranularity;
use crate::metrics::{RequestOutcome, ServeMetrics};

/// Journal file magic: "TrimCaching JournaL".
pub(crate) const JOURNAL_MAGIC: [u8; 4] = *b"TCJL";
/// Journal format version this build reads and writes.
pub(crate) const JOURNAL_VERSION: u8 = 1;

const TAG_HEADER: u8 = 0;
const TAG_SERVED: u8 = 1;

/// Identity of the run a journal belongs to, written as the first
/// record. Resume checks it against the checkpoint and the caller's
/// inputs before trusting the record stream.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalHeader {
    /// RNG seed of the run.
    pub seed: u64,
    /// Name of the eviction policy driving the run.
    pub policy: String,
    /// Metrics window length in simulated seconds.
    pub window_s: f64,
    /// Configured run duration in simulated seconds.
    pub duration_s: f64,
    /// Cache-fill granularity of the run.
    pub granularity: FillGranularity,
}

/// One served request, as recorded live by the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServedRecord {
    /// Simulated arrival time of the request.
    pub time_s: f64,
    /// Requesting user index.
    pub user: u32,
    /// Requested model index.
    pub model: u32,
    /// How the request ended.
    pub outcome: RequestOutcome,
    /// Raw IEEE-754 bits of the recorded service latency, absent for
    /// rejected requests. Stored as bits so a journal replay feeds the
    /// histogram the *identical* value the live run did.
    pub latency_bits: Option<u64>,
    /// Needed parameter blocks already resident at the serving server.
    pub block_hits: u32,
    /// Parameter blocks the request needed in total.
    pub block_requests: u32,
}

impl ServedRecord {
    /// The recorded service latency in seconds, if the request was
    /// served.
    pub fn latency_s(&self) -> Option<f64> {
        self.latency_bits.map(f64::from_bits)
    }
}

wire_struct!(JournalHeader tag TAG_HEADER {
    seed: u64,
    policy: String,
    window_s: f64,
    duration_s: f64,
    granularity: FillGranularity,
});

wire_struct!(ServedRecord tag TAG_SERVED {
    time_s: f64,
    user: u32,
    model: u32,
    outcome: RequestOutcome,
    latency_bits: Option<u64>,
    block_hits: u32,
    block_requests: u32,
});

wire_enum!(FillGranularity {
    WholeModel = 0,
    Block = 1,
});

wire_enum!(RequestOutcome {
    Hit = 0,
    MissServed = 1,
    Rejected = 2,
});

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out
}

/// Buffered appender for a run's journal.
#[derive(Debug)]
pub(crate) struct JournalWriter {
    writer: BufWriter<File>,
    path: PathBuf,
    /// Logical length of the journal including bytes still buffered —
    /// equals the on-disk length after a flush.
    offset: u64,
    /// Reused frame buffer: appends run once per served request, so
    /// the hot path must not allocate.
    scratch: Vec<u8>,
}

impl JournalWriter {
    /// Creates (truncating) a journal at `path` and writes its magic,
    /// version and header record, flushed to disk immediately so even a
    /// run killed before its first checkpoint leaves a parseable file.
    pub(crate) fn create(path: &Path, header: &JournalHeader) -> Result<Self, PersistError> {
        let file = File::create(path).map_err(|e| PersistError::io(path, e))?;
        let mut writer = Self {
            writer: BufWriter::new(file),
            path: path.to_path_buf(),
            offset: 0,
            scratch: Vec::new(),
        };
        writer.write_all(&JOURNAL_MAGIC)?;
        writer.write_all(&[JOURNAL_VERSION])?;
        writer.write_all(&frame(&encode(header)))?;
        writer.flush()?;
        Ok(writer)
    }

    /// Reopens a recovered journal for appending. `valid_len` must be
    /// the verified length returned by [`recover_journal`]; the file is
    /// truncated to it first, dropping any torn tail.
    pub(crate) fn reopen(path: &Path, valid_len: u64) -> Result<Self, PersistError> {
        let file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| PersistError::io(path, e))?;
        file.set_len(valid_len)
            .map_err(|e| PersistError::io(path, e))?;
        let mut file = file;
        use std::io::Seek;
        file.seek(std::io::SeekFrom::End(0))
            .map_err(|e| PersistError::io(path, e))?;
        Ok(Self {
            writer: BufWriter::new(file),
            path: path.to_path_buf(),
            offset: valid_len,
            scratch: Vec::new(),
        })
    }

    fn write_all(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        self.writer
            .write_all(bytes)
            .map_err(|e| PersistError::io(&self.path, e))?;
        self.offset += bytes.len() as u64;
        Ok(())
    }

    /// Appends one served-event record (buffered). This runs once per
    /// served request: the whole frame is assembled in a reused scratch
    /// buffer — length placeholder, payload, CRC — and handed to the
    /// buffered writer in one call, so the steady state performs no
    /// allocation and a single `write_all`.
    pub(crate) fn append(&mut self, record: &ServedRecord) -> Result<(), PersistError> {
        let mut e = Encoder::with_buffer(std::mem::take(&mut self.scratch));
        e.put(&0u32); // frame-length placeholder, patched below
        e.put(record);
        let mut frame = e.into_bytes();
        let payload_len = frame.len() - 4;
        frame[..4].copy_from_slice(&(payload_len as u32).to_le_bytes());
        let crc = crc32(&frame[4..]);
        frame.extend_from_slice(&crc.to_le_bytes());
        let result = self.write_all(&frame);
        self.scratch = frame;
        result
    }

    /// Flushes buffered records to disk.
    pub(crate) fn flush(&mut self) -> Result<(), PersistError> {
        self.writer
            .flush()
            .map_err(|e| PersistError::io(&self.path, e))
    }

    /// Logical journal length in bytes (on-disk length after a flush).
    pub(crate) fn offset(&self) -> u64 {
        self.offset
    }
}

/// A journal read back leniently: everything up to the last record
/// whose frame and CRC check out.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RecoveredJournal {
    /// The run-identity header.
    pub header: JournalHeader,
    /// Served events in serve order.
    pub records: Vec<ServedRecord>,
    /// Byte offset of the end of each record's frame, aligned with
    /// `records` — lets resume map a checkpoint's journal offset to the
    /// records it has already absorbed.
    pub record_ends: Vec<u64>,
    /// Length of the valid prefix; bytes beyond it belong to a torn
    /// record and must be truncated before appending.
    pub valid_len: u64,
    /// Whether a torn or corrupt tail was found (and excluded).
    pub torn: bool,
}

fn read_file(path: &Path) -> Result<Vec<u8>, PersistError> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| PersistError::io(path, e))?;
    Ok(bytes)
}

/// Reads a journal, stopping at the last record whose length frame and
/// CRC verify. A torn final record (crash mid-write) sets `torn` and is
/// excluded; a corrupt *header* is unrecoverable and errors.
pub(crate) fn recover_journal(path: &Path) -> Result<RecoveredJournal, PersistError> {
    let bytes = read_file(path)?;
    if bytes.len() < 5 || bytes[..4] != JOURNAL_MAGIC {
        return Err(PersistError::Corrupt {
            context: format!("journal {}: missing TCJL magic", path.display()),
        });
    }
    if bytes[4] != JOURNAL_VERSION {
        return Err(PersistError::Corrupt {
            context: format!(
                "journal {}: unsupported format version {}",
                path.display(),
                bytes[4]
            ),
        });
    }

    let mut pos = 5usize;
    let mut frames: Vec<(&[u8], u64)> = Vec::new();
    let mut torn = false;
    while pos < bytes.len() {
        let start = pos;
        // A frame needs at least the length word and the CRC word.
        if bytes.len() - pos < 8 {
            torn = true;
            break;
        }
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
            as usize;
        pos += 4;
        if bytes.len() - pos < len + 4 {
            torn = true;
            pos = start;
            break;
        }
        let payload = &bytes[pos..pos + len];
        pos += len;
        let stored_crc =
            u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]]);
        pos += 4;
        if crc32(payload) != stored_crc {
            torn = true;
            pos = start;
            break;
        }
        frames.push((payload, pos as u64));
    }
    let mut valid_len = if torn { pos as u64 } else { bytes.len() as u64 };

    let Some((header_payload, _)) = frames.first() else {
        return Err(PersistError::Corrupt {
            context: format!("journal {}: no intact header record", path.display()),
        });
    };
    let header = decode(header_payload, "journal header")?;
    let mut records = Vec::with_capacity(frames.len() - 1);
    let mut record_ends = Vec::with_capacity(frames.len() - 1);
    for (idx, (payload, end)) in frames[1..].iter().enumerate() {
        match decode(payload, "journal record") {
            Ok(record) => {
                records.push(record);
                record_ends.push(*end);
            }
            Err(_) => {
                // A frame whose length and CRC verify but whose payload
                // is not a served record is still a torn tail — e.g. a
                // zero-filled page after a crash parses as a length-0
                // frame whose CRC (of nothing) happens to match.
                // Truncate at the frame's start — the end of the
                // previous frame — and keep every record before it.
                torn = true;
                valid_len = frames[idx].1;
                break;
            }
        }
    }
    Ok(RecoveredJournal {
        header,
        records,
        record_ends,
        valid_len,
        torn,
    })
}

/// Reads a journal strictly: any torn or corrupt tail is an error
/// ([`PersistError::TornRecord`] carrying the offset at which the valid
/// prefix ends), rather than being silently dropped.
///
/// # Errors
///
/// Fails on I/O errors, a missing or corrupt header, or a torn final
/// record.
pub fn read_journal(path: &Path) -> Result<(JournalHeader, Vec<ServedRecord>), PersistError> {
    let recovered = recover_journal(path)?;
    if recovered.torn {
        return Err(PersistError::TornRecord {
            offset: recovered.valid_len,
        });
    }
    Ok((recovered.header, recovered.records))
}

/// Recomputes the run's request-level metrics from its journal,
/// bit-for-bit equal to the live run's values: the same window trace,
/// hit counters, block-residency ratios and latency histogram (fed the
/// identical latency bit patterns in the identical order).
///
/// Byte-level counters (backhaul traffic, insertions, evictions,
/// control activity) are engine state, not request outcomes — they are
/// not journaled and stay zero here.
pub fn recompute_metrics(header: &JournalHeader, records: &[ServedRecord]) -> ServeMetrics {
    let mut metrics = ServeMetrics::new(header.window_s);
    for r in records {
        metrics.record(r.time_s, r.outcome, r.latency_s());
        metrics.block_hits += u64::from(r.block_hits);
        metrics.block_requests += u64::from(r.block_requests);
    }
    metrics.finish(header.duration_s);
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tc-journal-{}-{name}", std::process::id()))
    }

    fn sample_header() -> JournalHeader {
        JournalHeader {
            seed: 2024,
            policy: "lru".into(),
            window_s: 10.0,
            duration_s: 60.0,
            granularity: FillGranularity::Block,
        }
    }

    fn sample_record(i: u32) -> ServedRecord {
        ServedRecord {
            time_s: f64::from(i) * 1.5,
            user: i,
            model: i % 3,
            outcome: match i % 3 {
                0 => RequestOutcome::Hit,
                1 => RequestOutcome::MissServed,
                _ => RequestOutcome::Rejected,
            },
            latency_bits: if i % 3 == 2 {
                None
            } else {
                Some((0.25f64 * f64::from(i + 1)).to_bits())
            },
            block_hits: i,
            block_requests: i + 2,
        }
    }

    #[test]
    fn journal_round_trips_header_and_records() {
        let path = temp_path("roundtrip.tcj");
        let header = sample_header();
        let mut w = JournalWriter::create(&path, &header).unwrap();
        let records: Vec<_> = (0..7).map(sample_record).collect();
        for r in &records {
            w.append(r).unwrap();
        }
        w.flush().unwrap();
        let on_disk = std::fs::metadata(&path).unwrap().len();
        assert_eq!(on_disk, w.offset());

        let (read_header, read_records) = read_journal(&path).unwrap();
        assert_eq!(read_header, header);
        assert_eq!(read_records, records);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_detected_and_recoverable() {
        let path = temp_path("torn.tcj");
        let header = sample_header();
        let mut w = JournalWriter::create(&path, &header).unwrap();
        for i in 0..5 {
            w.append(&sample_record(i)).unwrap();
        }
        w.flush().unwrap();
        let full_len = w.offset();
        drop(w);

        // Simulate a crash mid-write: chop the last record in half.
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(full_len - 7).unwrap();
        drop(file);

        assert!(matches!(
            read_journal(&path),
            Err(PersistError::TornRecord { .. })
        ));
        let recovered = recover_journal(&path).unwrap();
        assert!(recovered.torn);
        assert_eq!(recovered.records.len(), 4);
        assert_eq!(recovered.valid_len, *recovered.record_ends.last().unwrap());

        // Reopening truncates the tail; the file is strict-readable again.
        let w = JournalWriter::reopen(&path, recovered.valid_len).unwrap();
        drop(w);
        let (_, records) = read_journal(&path).unwrap();
        assert_eq!(records.len(), 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tail_torn_exactly_at_the_length_prefix_boundary() {
        let path = temp_path("torn-at-len.tcj");
        let mut w = JournalWriter::create(&path, &sample_header()).unwrap();
        for i in 0..4 {
            w.append(&sample_record(i)).unwrap();
        }
        w.flush().unwrap();
        let full_len = w.offset();
        drop(w);

        // Leave exactly 3 bytes of the next record's length prefix: the
        // tear lands inside the length word itself.
        let bytes = std::fs::read(&path).unwrap();
        let mut torn_bytes = bytes.clone();
        torn_bytes.extend_from_slice(&7u32.to_le_bytes()[..3]);
        std::fs::write(&path, &torn_bytes).unwrap();

        let recovered = recover_journal(&path).unwrap();
        assert!(recovered.torn);
        assert_eq!(recovered.records.len(), 4, "no valid record may be lost");
        assert_eq!(recovered.valid_len, full_len, "truncate at the tear only");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tail_torn_exactly_at_the_final_crc_byte() {
        let path = temp_path("torn-at-crc.tcj");
        let mut w = JournalWriter::create(&path, &sample_header()).unwrap();
        for i in 0..4 {
            w.append(&sample_record(i)).unwrap();
        }
        w.flush().unwrap();
        let full_len = w.offset();
        drop(w);
        let prev_end = recover_journal(&path)
            .unwrap()
            .record_ends
            .get(2)
            .copied()
            .unwrap();

        // Chop exactly the last CRC byte: length and payload of the
        // final record are complete, its CRC word is one byte short.
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(full_len - 1).unwrap();
        drop(file);

        let recovered = recover_journal(&path).unwrap();
        assert!(recovered.torn);
        assert_eq!(
            recovered.records.len(),
            3,
            "the complete preceding records survive"
        );
        assert_eq!(
            recovered.valid_len, prev_end,
            "truncation lands at the torn record's start"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn zero_filled_tail_is_a_torn_record_not_a_hard_error() {
        let path = temp_path("zero-tail.tcj");
        let mut w = JournalWriter::create(&path, &sample_header()).unwrap();
        for i in 0..4 {
            w.append(&sample_record(i)).unwrap();
        }
        w.flush().unwrap();
        let full_len = w.offset();
        drop(w);

        // A crash on some filesystems leaves pre-allocated zero pages
        // after the last real write. A zeroed span parses as length-0
        // frames whose CRC (of the empty payload) matches — the decode
        // step must classify them as a torn tail, not destroy the
        // journal with a hard corruption error.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0u8; 64]);
        std::fs::write(&path, &bytes).unwrap();

        let recovered = recover_journal(&path).unwrap();
        assert!(recovered.torn);
        assert_eq!(recovered.records.len(), 4, "every real record survives");
        assert_eq!(recovered.valid_len, full_len);

        // Reopening at the recovered length makes the file strict again.
        let w = JournalWriter::reopen(&path, recovered.valid_len).unwrap();
        drop(w);
        let (_, records) = read_journal(&path).unwrap();
        assert_eq!(records.len(), 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_record_body_is_caught_by_crc() {
        let path = temp_path("bitflip.tcj");
        let mut w = JournalWriter::create(&path, &sample_header()).unwrap();
        for i in 0..3 {
            w.append(&sample_record(i)).unwrap();
        }
        w.flush().unwrap();
        let len = w.offset();
        drop(w);

        // Flip one byte inside the final record's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let target = (len - 10) as usize;
        bytes[target] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let recovered = recover_journal(&path).unwrap();
        assert!(recovered.torn);
        assert_eq!(recovered.records.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let path = temp_path("magic.tcj");
        std::fs::write(&path, b"NOPE\x01").unwrap();
        assert!(matches!(
            recover_journal(&path),
            Err(PersistError::Corrupt { .. })
        ));
        let mut bytes = JOURNAL_MAGIC.to_vec();
        bytes.push(99);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            recover_journal(&path),
            Err(PersistError::Corrupt { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recomputed_metrics_match_a_live_recording() {
        let header = sample_header();
        let records: Vec<_> = (0..50).map(sample_record).collect();

        let mut live = ServeMetrics::new(header.window_s);
        for r in &records {
            live.record(r.time_s, r.outcome, r.latency_s());
            live.block_hits += u64::from(r.block_hits);
            live.block_requests += u64::from(r.block_requests);
        }
        live.finish(header.duration_s);

        let offline = recompute_metrics(&header, &records);
        assert_eq!(offline, live);
        assert_eq!(offline.p95_latency_s(), live.p95_latency_s());
    }
}

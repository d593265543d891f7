//! Durable serving: journaled runs, checkpoint resume and A/B forks
//! over the `runtime::persist` subsystem.
//!
//! City-scale serving runs take long enough that crashes, deploys and
//! pre-emption are facts of life. These drivers exercise the durable
//! path end to end from the command line:
//!
//! * [`serve_journal`] — one fully journaled and checkpointed run,
//!   reporting the live metrics next to the on-disk artefact sizes and
//!   verifying that the journal recomputes the live request-level
//!   metrics bit-for-bit;
//! * [`resume_run`] — re-opens the artefacts of a previous
//!   [`serve_journal`] run, replays the journal suffix past the latest
//!   checkpoint and runs to completion, checking the resumed report
//!   against a fresh uninterrupted run of the same configuration;
//! * [`fork_ab`] — interrupts a run mid-flight, then forks the same
//!   checkpoint under two eviction policies: identical pasts,
//!   deterministically diverging futures;
//! * [`journal_stats`] — pure offline analysis of journal artefacts, no
//!   scenario required: request counts, hit ratios and latency
//!   percentiles recomputed from the served-event records alone. Every
//!   run leaves one `journal_<s>.tcj` per shard (a classic run is shard
//!   0); they are merged in shard order into the same metrics the live
//!   merged report carried.
//!
//! All four share one deterministic study setting (the seed comes from
//! the `RunConfig`), so `serve-journal` followed by `resume` or
//! `journal-stats` on the same `--dir` is a coherent workflow.

use std::path::Path;

use trimcaching_runtime::{
    read_journal, recompute_metrics, Checkpoint, ControlConfig, CostAwareLfu, EvictionPolicy, Lru,
    PersistConfig, RuntimeError, ServeConfig, ServeEngine, ServeMetrics, ServeReport,
};
use trimcaching_scenario::Scenario;

use crate::experiments::{LibraryKind, RunConfig};
use crate::report::{ExperimentTable, Measurement};
use crate::topology::TopologyConfig;
use crate::SimError;

/// Simulated run length in seconds.
const DURATION_S: f64 = 600.0;
/// Per-user request rate.
const RATE_HZ: f64 = 0.2;
/// Checkpoint cadence.
const CHECKPOINT_EVERY_S: f64 = 60.0;
/// The A/B fork point: half-way through the run.
const FORK_S: f64 = 300.0;

/// The durable-study scenario: the paper's footprint with capacity
/// tight enough that eviction policy choices diverge.
fn durable_scenario(config: &RunConfig) -> Result<Scenario, SimError> {
    let library = config.build_library(LibraryKind::Special);
    TopologyConfig::paper_defaults()
        .with_users(20)
        .with_capacity_gb(0.25)
        .generate(&library, config.monte_carlo.seed, 0)
}

/// The serving configuration of the study: mobility and the control
/// loop both on, so checkpoints carry every stateful subsystem.
fn durable_serve_config(config: &RunConfig) -> ServeConfig {
    ServeConfig::paper_defaults()
        .with_duration_s(DURATION_S)
        .with_request_rate_hz(RATE_HZ)
        .with_seed(config.monte_carlo.seed)
        .with_mobility_slot_s(5.0)
        .with_control(ControlConfig::paper_defaults().with_tick_s(30.0))
}

/// The persistence setting every driver shares.
fn persist_config(dir: &Path) -> PersistConfig {
    PersistConfig::new(dir.to_path_buf()).with_checkpoint_every_s(CHECKPOINT_EVERY_S)
}

/// File size in MB, zero when the file is missing.
fn file_mb(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64 / 1e6)
}

/// Whether two metrics objects agree on the request-level view — the
/// part a journal can recompute. Engine-side byte counters are
/// deliberately excluded.
fn request_level_match(a: &ServeMetrics, b: &ServeMetrics) -> bool {
    a.requests == b.requests
        && a.hits == b.hits
        && a.misses_served == b.misses_served
        && a.rejected == b.rejected
        && a.block_hits == b.block_hits
        && a.block_requests == b.block_requests
        && a.windows() == b.windows()
        && a.p50_latency_s().map(f64::to_bits) == b.p50_latency_s().map(f64::to_bits)
        && a.p95_latency_s().map(f64::to_bits) == b.p95_latency_s().map(f64::to_bits)
        && a.p99_latency_s().map(f64::to_bits) == b.p99_latency_s().map(f64::to_bits)
}

/// The standard per-run summary columns.
fn summary_series() -> Vec<String> {
    vec![
        "requests".into(),
        "hit-ratio".into(),
        "p95-latency-ms".into(),
        "backhaul-MB".into(),
        "journal-MB".into(),
        "checkpoint-MB".into(),
    ]
}

/// The standard per-run summary cells.
fn summary_cells(report: &ServeReport, dir: &Path) -> Vec<Measurement> {
    let m = &report.metrics;
    [
        m.requests as f64,
        m.hit_ratio(),
        m.p95_latency_s().unwrap_or(0.0) * 1e3,
        m.backhaul_bytes_moved as f64 / 1e6,
        file_mb(&persist_config(dir).journal_shard_path(0)),
        file_mb(&persist_config(dir).checkpoint_path()),
    ]
    .into_iter()
    .map(|mean| Measurement { mean, std_dev: 0.0 })
    .collect()
}

/// One fully journaled, checkpointed serving run into `dir`, plus the
/// offline cross-check: the journal must recompute the live run's
/// request-level metrics bit-for-bit (the `offline-match` column is 1).
///
/// # Errors
///
/// Propagates topology, runtime and persistence errors.
pub fn serve_journal(config: &RunConfig, dir: &Path) -> Result<ExperimentTable, SimError> {
    let scenario = durable_scenario(config)?;
    let serve_config = durable_serve_config(config).with_persist(persist_config(dir));
    let report = ServeEngine::new(&scenario, &CostAwareLfu, serve_config)?.run()?;

    let (header, records) =
        read_journal(&persist_config(dir).journal_shard_path(0)).map_err(RuntimeError::from)?;
    let offline = recompute_metrics(&header, &records);
    let matches = request_level_match(&offline, &report.metrics);

    let mut series = summary_series();
    series.push("offline-match".into());
    let mut table = ExperimentTable::new(
        "serve-journal",
        "Durable serving: journaled + checkpointed run (artefact sizes, offline recomputation)",
        "Run",
        "Metric value",
        series,
    );
    let mut cells = summary_cells(&report, dir);
    cells.push(Measurement {
        mean: f64::from(matches),
        std_dev: 0.0,
    });
    table.push_row(0.0, cells);
    Ok(table)
}

/// Resumes the artefacts a previous [`serve_journal`] run left in
/// `dir`: replays and verifies the journal suffix past the latest
/// checkpoint, runs to the configured end, and checks the resumed
/// report against a fresh uninterrupted run (`identical` column).
///
/// # Errors
///
/// Propagates topology, runtime and persistence errors — including the
/// clear `Persist` errors for missing, torn or mismatched artefacts.
pub fn resume_run(config: &RunConfig, dir: &Path) -> Result<ExperimentTable, SimError> {
    let scenario = durable_scenario(config)?;
    let checkpoint_s = Checkpoint::load(&persist_config(dir).checkpoint_path())
        .map_err(RuntimeError::from)?
        .time_s();
    let resumed = ServeEngine::resume(&scenario, &CostAwareLfu, persist_config(dir))?.run()?;
    // The ground truth: the identical configuration, never interrupted
    // and never persisted.
    let reference =
        ServeEngine::new(&scenario, &CostAwareLfu, durable_serve_config(config))?.run()?;

    let mut series = summary_series();
    series.push("resumed-from-s".into());
    series.push("identical".into());
    let mut table = ExperimentTable::new(
        "serve-resume",
        "Durable serving: resume from the latest checkpoint vs an uninterrupted run",
        "Run",
        "Metric value",
        series,
    );
    let mut cells = summary_cells(&resumed, dir);
    cells.push(Measurement {
        mean: checkpoint_s,
        std_dev: 0.0,
    });
    cells.push(Measurement {
        mean: f64::from(resumed == reference),
        std_dev: 0.0,
    });
    table.push_row(0.0, cells);
    Ok(table)
}

/// Interrupts the study run at its half-way point, then forks the
/// mid-run checkpoint under two eviction policies. Both forks share the
/// identical journaled past; their futures diverge deterministically —
/// the what-if experiment a checkpoint makes free.
///
/// Rows: 0 = the `cost-aware` fork (the policy the past was served
/// under), 1 = the `lru` fork. The `post-fork-hit-ratio` column scores
/// only the windows after the fork point, where the policies differ.
///
/// # Errors
///
/// Propagates topology, runtime and persistence errors.
pub fn fork_ab(config: &RunConfig, dir: &Path) -> Result<ExperimentTable, SimError> {
    let scenario = durable_scenario(config)?;
    let ab_dir = dir.join("fork-ab");
    std::fs::remove_dir_all(&ab_dir).ok();
    let serve_config = durable_serve_config(config).with_persist(persist_config(&ab_dir));
    ServeEngine::new(&scenario, &CostAwareLfu, serve_config)?.run_until(FORK_S)?;

    let checkpoint = persist_config(&ab_dir).checkpoint_path();
    let fork_s = Checkpoint::load(&checkpoint)
        .map_err(RuntimeError::from)?
        .time_s();
    let policies: [&dyn EvictionPolicy; 2] = [&CostAwareLfu, &Lru];
    let mut table = ExperimentTable::new(
        "fork-ab",
        "Durable serving: A/B forks of one mid-run checkpoint \
         (rows: 0 = cost-aware, 1 = lru; identical past, diverging futures)",
        "Fork",
        "Metric value",
        vec![
            "hit-ratio".into(),
            "post-fork-hit-ratio".into(),
            "p95-latency-ms".into(),
            "backhaul-MB".into(),
            "fork-point-s".into(),
        ],
    );
    for (row, policy) in policies.into_iter().enumerate() {
        let report = ServeEngine::fork(&scenario, policy, &checkpoint)?.run()?;
        let m = &report.metrics;
        let (mut hits, mut requests) = (0u64, 0u64);
        for w in m.windows().iter().filter(|w| w.end_s > fork_s) {
            hits += w.hits;
            requests += w.requests;
        }
        table.push_row(
            row as f64,
            [
                m.hit_ratio(),
                if requests == 0 {
                    0.0
                } else {
                    hits as f64 / requests as f64
                },
                m.p95_latency_s().unwrap_or(0.0) * 1e3,
                m.backhaul_bytes_moved as f64 / 1e6,
                fork_s,
            ]
            .into_iter()
            .map(|mean| Measurement { mean, std_dev: 0.0 })
            .collect(),
        );
    }
    Ok(table)
}

/// Reads the per-shard journal set `dir` holds (`journal_<s>.tcj`, one
/// per shard; a classic run is shard 0), discovered ascending from
/// shard 0 and merged in shard order — the same order the live run
/// merged its shard reports, so the recomputed request-level metrics
/// match the merged report bit-for-bit. Returns `(seed, shard count,
/// merged metrics)`; the seed is shard 0's header seed, which is the
/// run seed. A missing shard-0 journal surfaces as the strict read's
/// usual error.
pub(crate) fn read_journal_set(dir: &Path) -> Result<(u64, usize, ServeMetrics), SimError> {
    let persist = persist_config(dir);
    let (header, records) =
        read_journal(&persist.journal_shard_path(0)).map_err(RuntimeError::from)?;
    let seed = header.seed;
    let mut merged = recompute_metrics(&header, &records);
    let mut shard = 1;
    while persist.journal_shard_path(shard).exists() {
        let (header, records) =
            read_journal(&persist.journal_shard_path(shard)).map_err(RuntimeError::from)?;
        merged.merge_from(&recompute_metrics(&header, &records));
        shard += 1;
    }
    Ok((seed, shard, merged))
}

/// Offline journal analysis: everything the served-event records alone
/// determine, with no scenario and no replay. Works on the journal of a
/// completed *or* interrupted run (strict read — a torn tail is an
/// error, by design), and on the per-shard journal set of a sharded
/// run, whose shards merge back into the live merged report's
/// request-level metrics (the `shards` column reports how many were
/// found).
///
/// # Errors
///
/// Propagates persistence errors (missing journal, torn tail,
/// corruption).
pub fn journal_stats(dir: &Path) -> Result<ExperimentTable, SimError> {
    let (seed, shards, m) = read_journal_set(dir)?;
    let mut table = ExperimentTable::new(
        "journal-stats",
        "Durable serving: request-level metrics recomputed offline from the journal",
        "Run",
        "Metric value",
        vec![
            "seed".into(),
            "requests".into(),
            "hit-ratio".into(),
            "block-hit-ratio".into(),
            "p50-latency-ms".into(),
            "p95-latency-ms".into(),
            "p99-latency-ms".into(),
            "windows".into(),
            "shards".into(),
        ],
    );
    table.push_row(
        0.0,
        [
            seed as f64,
            m.requests as f64,
            m.hit_ratio(),
            m.block_hit_ratio(),
            m.p50_latency_s().unwrap_or(0.0) * 1e3,
            m.p95_latency_s().unwrap_or(0.0) * 1e3,
            m.p99_latency_s().unwrap_or(0.0) * 1e3,
            m.windows().len() as f64,
            shards as f64,
        ]
        .into_iter()
        .map(|mean| Measurement { mean, std_dev: 0.0 })
        .collect(),
    );
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use trimcaching_runtime::ShardedServeEngine;

    fn scratch_dir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tc-sim-durable-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn the_durable_workflow_holds_together() {
        let config = RunConfig::smoke();
        let dir = scratch_dir();

        // serve-journal: live run matches its own journal bit-for-bit.
        let journaled = serve_journal(&config, &dir).unwrap();
        assert_eq!(journaled.rows.len(), 1);
        let cells = &journaled.rows[0].cells;
        assert!(cells[0].mean > 0.0, "requests were served");
        assert!(cells[4].mean > 0.0, "the journal has bytes");
        assert!(cells[5].mean > 0.0, "the checkpoint has bytes");
        assert_eq!(cells[6].mean, 1.0, "offline recomputation matches");

        // journal-stats agrees with the live summary.
        let stats = journal_stats(&dir).unwrap();
        assert_eq!(stats.rows[0].cells[1].mean, cells[0].mean);
        assert_eq!(stats.rows[0].cells[0].mean, config.monte_carlo.seed as f64);

        // resume: replays the full journal and matches an uninterrupted
        // run exactly.
        let resumed = resume_run(&config, &dir).unwrap();
        let cells = &resumed.rows[0].cells;
        assert_eq!(cells[7].mean, 1.0, "resumed run must be identical");
        assert!(cells[6].mean >= 0.0, "checkpoint time is reported");

        // fork-ab: shared past, diverging futures.
        let forks = fork_ab(&config, &dir).unwrap();
        assert_eq!(forks.rows.len(), 2);
        assert_eq!(forks.rows[0].cells[4].mean, forks.rows[1].cells[4].mean);
        assert!(forks.rows[0].cells[4].mean > 0.0, "fork point is mid-run");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_journals_merge_back_into_the_live_report() {
        let config = RunConfig::smoke();
        let dir =
            std::env::temp_dir().join(format!("tc-sim-durable-sharded-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        let scenario = durable_scenario(&config).unwrap();
        let serve_config = durable_serve_config(&config).with_persist(persist_config(&dir));
        let live = ShardedServeEngine::new(&scenario, &CostAwareLfu, serve_config, 2)
            .unwrap()
            .with_threads(1)
            .run()
            .unwrap();

        // The per-shard journals, merged in shard order, recompute the
        // live merged report's request-level metrics bit-for-bit.
        let (seed, shards, merged) = read_journal_set(&dir).unwrap();
        assert_eq!(shards, 2, "both shard journals are discovered");
        assert_eq!(seed, live.seed, "shard 0 carries the run seed");
        assert!(
            request_level_match(&merged, &live.metrics),
            "merged shard journals must match the live sharded report"
        );

        // And journal-stats renders the same aggregate, flagging the
        // shard count.
        let stats = journal_stats(&dir).unwrap();
        let cells = &stats.rows[0].cells;
        assert_eq!(cells[0].mean, live.seed as f64);
        assert_eq!(cells[1].mean, live.metrics.requests as f64);
        assert_eq!(cells[2].mean, live.metrics.hit_ratio());
        assert_eq!(cells[8].mean, 2.0);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_stats_without_artefacts_is_a_clear_error() {
        let dir = std::env::temp_dir().join("tc-sim-durable-missing");
        std::fs::remove_dir_all(&dir).ok();
        assert!(matches!(
            journal_stats(&dir).unwrap_err(),
            SimError::Runtime(_)
        ));
    }
}

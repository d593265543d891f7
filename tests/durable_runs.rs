//! Durable-run integration tests: journaling, slot-boundary
//! checkpoints, byte-identical resume after a simulated kill, torn-tail
//! crash recovery, offline metric recomputation and A/B checkpoint
//! forks.
//!
//! The central claim under test: a persisted run that is killed at *any*
//! simulated time and resumed from its latest checkpoint produces a
//! final report **and** a journal file byte-for-byte identical to the
//! same run left uninterrupted.

use std::path::{Path, PathBuf};

use trimcaching::modellib::builders::SpecialCaseBuilder;
use trimcaching::prelude::*;
use trimcaching::runtime::{
    read_journal, recompute_metrics, ControlConfig, CostAwareLfu, Lru, PersistConfig,
    PopularityShift, RuntimeError, ServeConfig, ServeEngine, ServeReport, ShardedServeEngine,
};

/// A fresh scratch directory under the system temp dir, unique per
/// test and process so parallel test runs never collide.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tc-durable-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn scenario(num_users: usize, capacity_gb: f64) -> Scenario {
    let library = SpecialCaseBuilder::paper_setup()
        .models_per_backbone(3)
        .build(7);
    TopologyConfig::paper_defaults()
        .with_users(num_users)
        .with_capacity_gb(capacity_gb)
        .generate(&library, 7, 0)
        .expect("topology generates")
}

/// A configuration that exercises every checkpointed subsystem at once:
/// mobility (kinematics + handovers), the control loop (estimator and
/// drift state), block-granular fills and in-flight transfers.
fn full_config(seed: u64) -> ServeConfig {
    ServeConfig::smoke()
        .with_duration_s(240.0)
        .with_request_rate_hz(0.1)
        .with_seed(seed)
        .with_mobility_slot_s(5.0)
        .with_control(ControlConfig::paper_defaults().with_tick_s(30.0))
}

fn persisted(config: &ServeConfig, dir: &Path, every_s: f64) -> ServeConfig {
    config
        .clone()
        .with_persist(PersistConfig::new(dir.to_path_buf()).with_checkpoint_every_s(every_s))
}

fn run_full(s: &Scenario, config: &ServeConfig) -> ServeReport {
    ServeEngine::new(s, &CostAwareLfu, config.clone())
        .expect("engine builds")
        .run()
        .expect("run completes")
}

#[test]
fn persistence_does_not_change_results() {
    let s = scenario(10, 0.4);
    let config = full_config(41);
    let dir = scratch_dir("transparent");

    let plain = run_full(&s, &config);
    let durable = run_full(&s, &persisted(&config, &dir, 60.0));
    assert_eq!(
        plain, durable,
        "journaling and checkpointing must be invisible to the simulation"
    );
    assert!(dir.join("journal_0.tcj").exists());
    assert!(dir.join("checkpoint.tcp").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_is_byte_identical_at_any_interrupt_point() {
    let s = scenario(10, 0.4);
    let config = full_config(42);

    // The uninterrupted reference run, journaled for byte comparison.
    let base_dir = scratch_dir("anywhere-base");
    let reference = run_full(&s, &persisted(&config, &base_dir, 60.0));
    let reference_journal = std::fs::read(base_dir.join("journal_0.tcj")).expect("journal exists");

    // Kill points: before the first request, mid-interval, exactly at a
    // checkpoint boundary, and deep into the run.
    for (i, stop_s) in [0.0, 13.7, 60.0, 151.3, 180.0].into_iter().enumerate() {
        let dir = scratch_dir(&format!("anywhere-{i}"));
        let pc = || PersistConfig::new(dir.clone()).with_checkpoint_every_s(60.0);
        ServeEngine::new(&s, &CostAwareLfu, config.clone().with_persist(pc()))
            .expect("engine builds")
            .run_until(stop_s)
            .expect("interrupted run");
        let resumed = ServeEngine::resume(&s, &CostAwareLfu, pc())
            .expect("resume succeeds")
            .run()
            .expect("resumed run completes");
        assert_eq!(
            resumed, reference,
            "report after a kill at t={stop_s} must match the uninterrupted run"
        );
        let journal = std::fs::read(dir.join("journal_0.tcj")).expect("journal exists");
        assert_eq!(
            journal, reference_journal,
            "journal after a kill at t={stop_s} must be byte-identical"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&base_dir).ok();
}

#[test]
fn repeated_kills_still_converge_to_the_same_run() {
    let s = scenario(8, 0.4);
    let config = full_config(43);
    let reference = run_full(&s, &config);

    let dir = scratch_dir("chain");
    let pc = || PersistConfig::new(dir.clone()).with_checkpoint_every_s(30.0);
    ServeEngine::new(&s, &CostAwareLfu, config.with_persist(pc()))
        .expect("engine builds")
        .run_until(47.0)
        .expect("first leg");
    ServeEngine::resume(&s, &CostAwareLfu, pc())
        .expect("first resume")
        .run_until(128.9)
        .expect("second leg");
    let report = ServeEngine::resume(&s, &CostAwareLfu, pc())
        .expect("second resume")
        .run()
        .expect("final leg");
    assert_eq!(report, reference, "kill/resume chains must converge");
    std::fs::remove_dir_all(&dir).ok();
}

/// A durable run under a non-stationary workload — one shared
/// popularity ranking re-shuffled every 60 s — killed inside phases 1, 2
/// and 3 and resumed, at one and two regions. The workload is restored
/// from the checkpoint, not rebuilt by the caller, so the resumed
/// journals and report must still be byte-identical.
#[test]
fn resume_under_a_popularity_shift_is_byte_identical() {
    let library = SpecialCaseBuilder::paper_setup()
        .models_per_backbone(3)
        .build(7);
    let mut topology = TopologyConfig::paper_defaults()
        .with_users(12)
        .with_capacity_gb(0.4);
    topology.demand.personalised_popularity = false;
    let s = topology
        .generate(&library, 7, 0)
        .expect("topology generates");
    let config = full_config(44);
    let workload = PopularityShift::new(60.0, 4, 9)
        .workload(s.demand(), config.request_rate_hz)
        .expect("shift workload");
    assert_eq!(workload.num_rows(), 1, "shared popularity is one row");
    let engine = |shards: usize, config: ServeConfig| {
        let mut engine =
            ShardedServeEngine::new(&s, &CostAwareLfu, config, shards).expect("engine builds");
        engine
            .set_workload(workload.clone())
            .expect("workload fits");
        engine
    };

    for shards in [1, 2] {
        let journals = |dir: &Path| -> Vec<Vec<u8>> {
            (0..shards)
                .map(|r| std::fs::read(dir.join(format!("journal_{r}.tcj"))).expect("journal"))
                .collect()
        };
        let base_dir = scratch_dir(&format!("shift-base-r{shards}"));
        let reference = engine(shards, persisted(&config, &base_dir, 45.0))
            .run()
            .expect("reference run");
        let stationary = ShardedServeEngine::new(&s, &CostAwareLfu, config.clone(), shards)
            .expect("engine builds")
            .run()
            .expect("stationary run");
        assert_ne!(reference, stationary, "the shift must change the run");

        // Checkpoints every 45 s; phase boundaries at 60, 120 and 180 s.
        for stop_s in [100.0, 150.0, 200.0] {
            let dir = scratch_dir(&format!("shift-r{shards}-{stop_s}"));
            let pc = || PersistConfig::new(dir.clone()).with_checkpoint_every_s(45.0);
            engine(shards, config.clone().with_persist(pc()))
                .run_until(stop_s)
                .expect("interrupted run");
            let resumed = ShardedServeEngine::resume(&s, &CostAwareLfu, pc())
                .expect("resume succeeds")
                .run()
                .expect("resumed run completes");
            assert_eq!(
                resumed, reference,
                "R={shards}: report after a kill at t={stop_s} must match"
            );
            assert_eq!(
                journals(&dir),
                journals(&base_dir),
                "R={shards}: journals after a kill at t={stop_s} must be byte-identical"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
        std::fs::remove_dir_all(&base_dir).ok();
    }
}

/// The CI smoke test: a 600-slot mobile run is killed mid-flight and
/// resumed; the full metric trace (windows, histogram, counters) must
/// equal the uninterrupted run's exactly.
#[test]
fn resume_smoke_600_slots() {
    let s = scenario(8, 0.4);
    let config = ServeConfig::smoke()
        .with_duration_s(600.0)
        .with_request_rate_hz(0.05)
        .with_seed(600)
        .with_mobility_slot_s(1.0); // 600 mobility slots
    let reference = run_full(&s, &config);

    let dir = scratch_dir("smoke600");
    let pc = || PersistConfig::new(dir.clone()).with_checkpoint_every_s(60.0);
    ServeEngine::new(&s, &CostAwareLfu, config.with_persist(pc()))
        .expect("engine builds")
        .run_until(317.0)
        .expect("killed at t=317");
    // Resuming under the wrong policy is refused with a clear error...
    let mismatch = ServeEngine::resume(&s, &Lru, pc());
    assert!(matches!(mismatch, Err(RuntimeError::Persist(_))));
    // ...and the matching policy resumes to the identical trace.
    let report = ServeEngine::resume(&s, &CostAwareLfu, pc())
        .expect("resume succeeds")
        .run()
        .expect("resumed run completes");
    assert_eq!(report.metrics.windows(), reference.metrics.windows());
    assert_eq!(report, reference);
    assert!(report.metrics.snapshot_rebuilds >= 599);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_journal_tail_is_recovered_from_the_last_checkpoint() {
    let s = scenario(10, 0.4);
    let config = full_config(44);
    let reference = run_full(&s, &config);

    let dir = scratch_dir("torn");
    let pc = || PersistConfig::new(dir.clone()).with_checkpoint_every_s(60.0);
    ServeEngine::new(&s, &CostAwareLfu, config.with_persist(pc()))
        .expect("engine builds")
        .run_until(100.0)
        .expect("killed at t=100");

    // Crash injection: chop bytes off the journal tail, leaving the
    // final record torn — as if the process died mid-`write`.
    let journal_path = dir.join("journal_0.tcj");
    let len = std::fs::metadata(&journal_path)
        .expect("journal exists")
        .len();
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&journal_path)
        .expect("journal opens");
    file.set_len(len - 5).expect("truncates");
    drop(file);

    // The strict reader names the torn offset; resume recovers by
    // truncating to the valid prefix and re-serving from the last
    // checkpoint, re-journaling the lost suffix identically.
    let strict = read_journal(&journal_path);
    assert!(
        matches!(
            strict,
            Err(trimcaching::runtime::PersistError::TornRecord { offset }) if offset < len - 5
        ),
        "strict read must report the torn record, got {strict:?}"
    );
    let report = ServeEngine::resume(&s, &CostAwareLfu, pc())
        .expect("resume recovers the torn journal")
        .run()
        .expect("resumed run completes");
    assert_eq!(report, reference, "torn-tail recovery must lose nothing");
    let (_, records) = read_journal(&journal_path).expect("journal is whole again");
    assert_eq!(records.len() as u64, reference.metrics.requests);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_checkpoint_is_a_clear_error() {
    let s = scenario(8, 0.4);
    let dir = scratch_dir("corrupt-cp");
    let pc = || PersistConfig::new(dir.clone()).with_checkpoint_every_s(30.0);
    ServeEngine::new(&s, &CostAwareLfu, full_config(45).with_persist(pc()))
        .expect("engine builds")
        .run_until(90.0)
        .expect("killed at t=90");

    let cp_path = dir.join("checkpoint.tcp");
    let mut bytes = std::fs::read(&cp_path).expect("checkpoint exists");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&cp_path, &bytes).expect("rewrites");

    let err = ServeEngine::resume(&s, &CostAwareLfu, pc())
        .map(|_| ())
        .unwrap_err();
    assert!(
        matches!(err, RuntimeError::Persist(_)),
        "a flipped checkpoint byte must surface as a persistence error, got {err:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn journal_recomputes_the_request_level_metrics_bit_for_bit() {
    let s = scenario(10, 0.4);
    let dir = scratch_dir("recompute");
    let config = persisted(&full_config(46), &dir, 60.0);
    let report = run_full(&s, &config);

    let (header, records) = read_journal(&dir.join("journal_0.tcj")).expect("journal reads");
    assert_eq!(records.len() as u64, report.metrics.requests);
    let offline = recompute_metrics(&header, &records);
    let live = &report.metrics;
    assert_eq!(offline.requests, live.requests);
    assert_eq!(offline.hits, live.hits);
    assert_eq!(offline.misses_served, live.misses_served);
    assert_eq!(offline.rejected, live.rejected);
    assert_eq!(offline.block_hits, live.block_hits);
    assert_eq!(offline.block_requests, live.block_requests);
    assert_eq!(offline.windows(), live.windows());
    // The histogram was fed identical bit patterns in identical order.
    assert_eq!(offline.p50_latency_s(), live.p50_latency_s());
    assert_eq!(offline.p95_latency_s(), live.p95_latency_s());
    assert_eq!(offline.p99_latency_s(), live.p99_latency_s());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn forks_share_their_past_and_diverge_deterministically() {
    let s = scenario(12, 0.25);
    let config = full_config(47);
    let dir = scratch_dir("fork");
    let pc = PersistConfig::new(dir.clone()).with_checkpoint_every_s(60.0);
    // Persist the A-side to completion; its checkpoint file holds the
    // last boundary (t = duration), so interrupt partway instead to
    // leave a mid-run fork point on disk.
    ServeEngine::new(&s, &CostAwareLfu, config.clone().with_persist(pc))
        .expect("engine builds")
        .run_until(130.0)
        .expect("killed at t=130");
    let cp_path = dir.join("checkpoint.tcp");

    // Fork the same checkpoint under the original and a different
    // policy: identical past, policy-only divergence ahead.
    let a1 = ServeEngine::fork(&s, &CostAwareLfu, &cp_path)
        .expect("fork A")
        .run()
        .expect("fork A runs");
    let a2 = ServeEngine::fork(&s, &CostAwareLfu, &cp_path)
        .expect("fork A again")
        .run()
        .expect("fork A runs again");
    let b1 = ServeEngine::fork(&s, &Lru, &cp_path)
        .expect("fork B")
        .run()
        .expect("fork B runs");
    let b2 = ServeEngine::fork(&s, &Lru, &cp_path)
        .expect("fork B again")
        .run()
        .expect("fork B runs again");
    assert_eq!(a1, a2, "each fork must be deterministic");
    assert_eq!(b1, b2, "each fork must be deterministic");
    assert_eq!(a1.policy, "cost-aware");
    assert_eq!(b1.policy, "lru");
    assert_ne!(
        a1.metrics, b1.metrics,
        "different policies over the same checkpoint must diverge"
    );

    // A same-policy fork is exactly the uninterrupted continuation.
    let reference = run_full(&s, &config);
    assert_eq!(a1, reference);
    std::fs::remove_dir_all(&dir).ok();
}

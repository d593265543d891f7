//! Bench target for the durable-run persistence path: what does a
//! journaled, checkpointed run cost next to a plain one, and how fast
//! is coming back from the dead?
//!
//! The measured workload is the one durable runs exist for: the dense
//! 5k-user LoRA market with mobility re-slotting, the online control
//! loop and block-granular fills all on — every stateful subsystem a
//! checkpoint has to carry. Persistence runs at its default durability
//! (rename-atomic checkpoints, no fsync): the failure model of the
//! resume tests is a killed *process*, and power-loss durability is an
//! explicit [`PersistConfig::with_fsync`] opt-in.
//!
//! Acceptance (asserted here, recorded in EXPERIMENTS.md):
//!
//! * journaling every served request **and** writing a checkpoint every
//!   60 simulated seconds costs at most **5% of serve throughput**
//!   (fastest of repeated order-alternated paired runs);
//! * a resumed run reproduces the uninterrupted report exactly (the
//!   timing loop would silently hide a divergence).
//!
//! Reported alongside: the journal-only decomposition, the on-disk
//! checkpoint and journal sizes, and the resume latency — load the
//! checkpoint, rebuild the engine and re-serve the journal suffix,
//! measured as time-to-first-new-event.

use std::path::PathBuf;

use trimcaching_bench::{measure, measure_paired, measure_with_setup};
use trimcaching_modellib::builders::{FoundationSpec, LoraLibraryBuilder};
use trimcaching_runtime::{
    serve, ControlConfig, CostAwareLfu, FillGranularity, PersistConfig, ServeConfig, ServeEngine,
};
use trimcaching_sim::TopologyConfig;
use trimcaching_wireless::RadioParams;

/// The dense-user LoRA-market scenario of `serve_scaling`: thousands of
/// users downloading lightweight adapter models.
fn scenario_with_users(num_users: usize) -> trimcaching_scenario::Scenario {
    let foundations = (0..3)
        .map(|f| FoundationSpec::new(format!("edge-fm{f}"), 4, 8_000_000))
        .collect();
    let library = LoraLibraryBuilder::with_foundations(foundations)
        .adapters_per_foundation(8)
        .adapter_size_bytes(1_500_000)
        .head_size_bytes(500_000)
        .build(2024);
    let radio = RadioParams::builder()
        .activity_probability(0.01)
        .build()
        .expect("radio params are valid");
    let mut topology = TopologyConfig::paper_defaults()
        .with_servers(10)
        .with_users(num_users)
        .with_capacity_gb(0.04);
    topology.radio = radio;
    topology
        .generate(&library, 2024, 0)
        .expect("topology generates")
}

/// A scratch directory unique to this process.
fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("tc-bench-checkpoint-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn main() {
    // Persistence-overhead acceptance: paired runs, identical seeds,
    // with and without the journal + 60 s checkpoints, on 5k users.
    let users = 5_000;
    let scenario = scenario_with_users(users);
    let base = ServeConfig::paper_defaults()
        .with_duration_s(300.0)
        .with_request_rate_hz(0.05)
        .with_seed(2024)
        .with_mobility_slot_s(5.0)
        .with_control(ControlConfig::paper_defaults().with_tick_s(30.0))
        .with_granularity(FillGranularity::Block);
    let dir = scratch("overhead");
    let persist = || PersistConfig::new(dir.clone()).with_checkpoint_every_s(60.0);
    let durable = base.clone().with_persist(persist());

    let reference = serve(&scenario, &CostAwareLfu, None, &base).expect("serve runs");
    assert_eq!(
        reference,
        serve(&scenario, &CostAwareLfu, None, &durable).expect("serve runs"),
        "persistence must be invisible in the report"
    );
    let checkpoint_bytes = std::fs::metadata(dir.join("checkpoint.tcp"))
        .expect("checkpoint exists")
        .len();
    let journal_bytes = std::fs::metadata(dir.join("journal_0.tcj"))
        .expect("journal exists")
        .len();

    // Decomposition arm: the journal alone, checkpoints pushed past the
    // horizon — attributes the measured overhead between the per-record
    // append and the boundary snapshots.
    let jdir = scratch("journal-only");
    let journal_only = base
        .clone()
        .with_persist(PersistConfig::new(jdir.clone()).with_checkpoint_every_s(1e9));
    let (_, journal) = measure("checkpoint_io/serve/journal-only", 9, || {
        serve(&scenario, &CostAwareLfu, None, &journal_only).expect("serve runs")
    });

    // Every run of either side, warm-ups included, serves the same
    // requests.
    let rounds = 11;
    let mut off_requests = Vec::with_capacity(rounds + 1);
    let mut on_requests = Vec::with_capacity(rounds + 1);
    let run = |config: &ServeConfig, requests: &mut Vec<u64>| {
        let report = serve(&scenario, &CostAwareLfu, None, config).expect("serve runs");
        requests.push(report.metrics.requests);
        report
    };
    let (off, on) = measure_paired(
        ["checkpoint_io/serve/plain", "checkpoint_io/serve/durable"],
        rounds,
        || run(&base, &mut off_requests),
        || run(&durable, &mut on_requests),
    );
    assert_eq!(off_requests, on_requests);
    let (off_best, on_best) = (off.min_s, on.min_s);
    let overhead = on_best / off_best - 1.0;
    let requests = reference.metrics.requests;

    // Resume latency: kill the run two thirds in, then measure coming
    // back — checkpoint load, engine rebuild, journal-suffix replay —
    // as the time until the resumed engine serves its first new event.
    let resume_dir = scratch("resume");
    let rp = || PersistConfig::new(resume_dir.clone()).with_checkpoint_every_s(60.0);
    let killed = base.clone().with_persist(rp());
    let (_, resume) = measure_with_setup(
        "checkpoint_io/resume/load+replay",
        rounds,
        || {
            std::fs::remove_dir_all(&resume_dir).ok();
            ServeEngine::new(&scenario, &CostAwareLfu, killed.clone())
                .expect("engine builds")
                .run_until(200.0)
                .expect("interrupted run");
        },
        // Stepping just past the kill point forces the full journal
        // suffix to be replayed and verified.
        |()| {
            ServeEngine::resume(&scenario, &CostAwareLfu, rp())
                .expect("resume")
                .run_until(200.1)
                .expect("first new events")
        },
    );

    eprintln!(
        "[checkpoint_io] {users} users, {requests} requests: \
         {:.0} req/s plain vs {:.0} req/s durable (overhead {:+.2}%, \
         journal alone {:+.2}%); checkpoint {:.1} KB, journal {:.1} KB, \
         resume-to-first-event {:.1} ms",
        requests as f64 / off_best,
        requests as f64 / on_best,
        overhead * 100.0,
        (journal.min_s / off_best - 1.0) * 100.0,
        checkpoint_bytes as f64 / 1e3,
        journal_bytes as f64 / 1e3,
        resume.min_s * 1e3,
    );
    assert!(
        overhead <= 0.05,
        "journaling + checkpointing overhead {:.2}% exceeds the 5% budget",
        overhead * 100.0
    );

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&jdir).ok();
    std::fs::remove_dir_all(&resume_dir).ok();
}

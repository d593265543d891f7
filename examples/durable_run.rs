//! Durable serving: journal, checkpoint, kill, resume — byte identical.
//!
//! A serving run is a pure function of its scenario, policy, seed and
//! workload; the `runtime::persist` subsystem makes that purity survive
//! a crash. This example runs the same simulation three ways:
//!
//! 1. **uninterrupted** — the reference run, journaled to disk;
//! 2. **killed and resumed** — the identical run stopped cold mid-way
//!    (the engine is simply dropped, as a crash would), then resumed
//!    from the latest slot-boundary checkpoint: the journal suffix past
//!    the checkpoint is replayed and verified, and the run continues to
//!    the same final report and the same journal bytes;
//! 3. **forked** — the mid-run checkpoint re-opened under a *different*
//!    eviction policy: identical past, deterministically diverging
//!    future — an A/B experiment for the price of a file copy.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example durable_run
//! ```

use std::path::PathBuf;

use trimcaching::modellib::builders::SpecialCaseBuilder;
use trimcaching::prelude::*;
use trimcaching::runtime::{read_journal, recompute_metrics, PersistConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A compact scenario: tight capacity so the eviction policy has
    //    real work to do, mobility and the control loop both on so the
    //    checkpoints carry every stateful subsystem.
    let library = SpecialCaseBuilder::paper_setup()
        .models_per_backbone(4)
        .build(2024);
    let scenario = TopologyConfig::paper_defaults()
        .with_users(15)
        .with_capacity_gb(0.3)
        .generate(&library, 2024, 0)?;

    let scratch = std::env::temp_dir().join(format!("trimcaching-durable-{}", std::process::id()));
    let dir_a: PathBuf = scratch.join("uninterrupted");
    let dir_b: PathBuf = scratch.join("killed");
    std::fs::remove_dir_all(&scratch).ok();

    let config = |dir: &PathBuf| {
        ServeConfig::paper_defaults()
            .with_duration_s(600.0)
            .with_request_rate_hz(0.2)
            .with_seed(7)
            .with_mobility_slot_s(5.0)
            .with_control(ControlConfig::paper_defaults().with_tick_s(30.0))
            .with_persist(PersistConfig::new(dir.clone()).with_checkpoint_every_s(60.0))
    };

    // 2. The uninterrupted reference: 600 simulated seconds, journaled,
    //    checkpointed every 60 s.
    let reference = ServeEngine::new(&scenario, &CostAwareLfu, config(&dir_a))?.run()?;
    println!(
        "uninterrupted : {} requests, hit ratio {:.4}, p95 {:.0} ms",
        reference.metrics.requests,
        reference.metrics.hit_ratio(),
        reference.metrics.p95_latency_s().unwrap_or(0.0) * 1e3,
    );

    // 3. The same run, killed cold at t = 217.3 s — dropping the engine
    //    mid-flight is exactly what a crash does. The journal keeps the
    //    served events past the last checkpoint; the checkpoint keeps
    //    the full engine state at t = 180 s.
    ServeEngine::new(&scenario, &CostAwareLfu, config(&dir_b))?.run_until(217.3)?;
    // Keep the mid-run checkpoint for step 6 — the resume below will
    // keep checkpointing and overwrite it with later ones.
    let fork_point = scratch.join("fork.tcp");
    std::fs::copy(dir_b.join("checkpoint.tcp"), &fork_point)?;

    // 4. Resume: re-open the artefacts, replay and verify the journal
    //    suffix, continue to the end.
    let resumed =
        ServeEngine::resume(&scenario, &CostAwareLfu, config(&dir_b).persist.unwrap())?.run()?;
    assert_eq!(resumed, reference, "resume must be invisible in the report");
    let journal_a = std::fs::read(dir_a.join("journal_0.tcj"))?;
    let journal_b = std::fs::read(dir_b.join("journal_0.tcj"))?;
    assert_eq!(journal_a, journal_b, "and invisible on disk");
    println!(
        "killed+resumed: identical report, identical journal ({} bytes)",
        journal_b.len()
    );

    // 5. Offline analysis: the journal alone recomputes the run's
    //    request-level metrics bit-for-bit — no scenario, no replay.
    let (header, records) = read_journal(&dir_a.join("journal_0.tcj"))?;
    let offline = recompute_metrics(&header, &records);
    assert_eq!(offline.requests, reference.metrics.requests);
    assert_eq!(
        offline.p95_latency_s().map(f64::to_bits),
        reference.metrics.p95_latency_s().map(f64::to_bits),
    );
    println!(
        "journal-stats : seed {}, {} records, hit ratio {:.4} (recomputed offline)",
        header.seed,
        records.len(),
        offline.hit_ratio()
    );

    // 6. A/B fork: the killed run's checkpoint (t = 180 s) re-opened
    //    under plain LRU. Same past, different policy, diverging future
    //    — and both futures are themselves deterministic.
    let fork_lru = ServeEngine::fork(&scenario, &Lru, &fork_point)?.run()?;
    let fork_again = ServeEngine::fork(&scenario, &Lru, &fork_point)?.run()?;
    assert_eq!(fork_lru, fork_again, "forks are deterministic");
    assert_ne!(
        fork_lru.metrics, reference.metrics,
        "a different policy writes a different future"
    );
    println!(
        "fork (lru)    : hit ratio {:.4} vs {:.4} under cost-aware — \
         same checkpoint, diverging futures",
        fork_lru.metrics.hit_ratio(),
        reference.metrics.hit_ratio(),
    );

    std::fs::remove_dir_all(&scratch).ok();
    Ok(())
}

//! Region-sharded serving integration tests: the thread-count
//! determinism contract end to end, on a city topology with clustered
//! demand, mobility, the control loop and durable persistence all on.
//!
//! The central claims under test:
//!
//! * the merged trace of a sharded run is **byte-identical for any
//!   worker-thread count** (journal files compared byte for byte);
//! * a sharded run killed mid-window resumes from the shared checkpoint
//!   and its per-shard journals into a byte-identical continuation.
//!
//! One shard *is* the classic engine by construction (`ServeEngine` is
//! the one-shard coordinator), so no test compares the two.

use std::path::{Path, PathBuf};

use trimcaching::runtime::{
    ControlConfig, CostAwareLfu, PersistConfig, ServeConfig, ShardedServeEngine,
};
use trimcaching::scenario::Scenario;
use trimcaching::sim::experiments::{LibraryKind, RunConfig};
use trimcaching::sim::CityScaleConfig;

/// A fresh scratch directory under the system temp dir, unique per
/// test and process so parallel test runs never collide.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tc-sharded-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A compact city: 2 km × 2 km, Poisson servers, 2 000 users on 32
/// clustered demand classes, sparse eligibility — the representation
/// mix the sharded engine exists for.
fn city_scenario() -> Scenario {
    let run = RunConfig::smoke();
    let library = run.build_library(LibraryKind::Special);
    let mut city = CityScaleConfig::district()
        .with_users(2_000)
        .with_demand_classes(32);
    city.area_side_m = 2_000.0;
    city.capacity_gb = 0.4;
    city.generate(&library, 11, 0).expect("city generates")
}

/// Mobility, control and persistence all on, so shard merges, masked
/// re-planning and shared checkpoints are all exercised.
fn full_config(seed: u64, dir: &Path) -> ServeConfig {
    ServeConfig::smoke()
        .with_duration_s(120.0)
        .with_request_rate_hz(0.05)
        .with_seed(seed)
        .with_mobility_slot_s(10.0)
        .with_control(ControlConfig::paper_defaults().with_tick_s(30.0))
        .with_persist(PersistConfig::new(dir.to_path_buf()).with_checkpoint_every_s(40.0))
}

fn journal_bytes(path: PathBuf) -> Vec<u8> {
    std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The CI release-profile smoke: same seed at 1 and 4 worker threads
/// must produce byte-identical per-shard journals and identical merged
/// reports; a mid-run kill must resume into the same bytes as well.
#[test]
fn sharded_determinism_smoke() {
    let scenario = city_scenario();
    let shards = 4;

    // 1 worker vs 4 workers: byte-identical journals, identical report.
    let serial_dir = scratch_dir("smoke-t1");
    let pooled_dir = scratch_dir("smoke-t4");
    let serial = ShardedServeEngine::new(
        &scenario,
        &CostAwareLfu,
        full_config(42, &serial_dir),
        shards,
    )
    .expect("engine builds")
    .with_threads(1)
    .run()
    .expect("serial run");
    let pooled = ShardedServeEngine::new(
        &scenario,
        &CostAwareLfu,
        full_config(42, &pooled_dir),
        shards,
    )
    .expect("engine builds")
    .with_threads(4)
    .run()
    .expect("pooled run");
    assert_eq!(
        serial, pooled,
        "the merged report must not depend on the worker-thread count"
    );
    assert!(serial.metrics.requests > 0, "the run must serve traffic");
    for shard in 0..shards {
        assert_eq!(
            journal_bytes(PersistConfig::new(&serial_dir).journal_shard_path(shard)),
            journal_bytes(PersistConfig::new(&pooled_dir).journal_shard_path(shard)),
            "shard {shard} journal must be byte-identical at 1 and 4 workers"
        );
    }

    // Kill mid-window (past the t=40 and t=80 checkpoints), resume,
    // and require the continuation to reproduce the uninterrupted run.
    let killed_dir = scratch_dir("smoke-killed");
    ShardedServeEngine::new(
        &scenario,
        &CostAwareLfu,
        full_config(42, &killed_dir),
        shards,
    )
    .expect("engine builds")
    .with_threads(4)
    .run_until(97.0)
    .expect("partial run");
    let persist = PersistConfig::new(&killed_dir).with_checkpoint_every_s(40.0);
    let resumed = ShardedServeEngine::resume(&scenario, &CostAwareLfu, persist.clone())
        .expect("resume")
        .with_threads(4)
        .run()
        .expect("resumed run");
    assert_eq!(
        serial, resumed,
        "a killed-and-resumed sharded run must reproduce the uninterrupted trace"
    );
    for shard in 0..shards {
        assert_eq!(
            journal_bytes(PersistConfig::new(&serial_dir).journal_shard_path(shard)),
            journal_bytes(persist.journal_shard_path(shard)),
            "shard {shard} journal must be byte-identical after kill/resume"
        );
    }
}

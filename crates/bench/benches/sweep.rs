//! Bench target for the declarative sweep harness: wall-clock cell
//! throughput of a full grid, with the worker-count determinism check
//! run inline.
//!
//! Two parts:
//!
//! 1. a headline grid — the new workload families crossed with two
//!    eviction policies and two shard counts (16 cells), executed once
//!    on a single sweep worker and then timed on the full pool over 10
//!    samples, asserting the two reports are identical and printing
//!    cells/second at the median. The pooled row lands in
//!    `BENCH_sweep.json` at the repository root;
//! 2. timings of a small fixed grid per worker count.

use trimcaching_bench::{measure, repo_root, write_bench_json};
use trimcaching_sim::{run_sweep, PolicyKind, SweepSpec, WorkloadFamily};

/// The headline grid: every serving-path family the sweep ships, on a
/// reduced city so the whole grid stays in bench-friendly territory.
fn headline_spec() -> SweepSpec {
    let mut spec = SweepSpec::smoke();
    spec.name = "bench".into();
    spec.duration_s = 90.0;
    spec.users = vec![200];
    spec.area_side_m = 1_200.0;
    spec.demand_classes = 8;
    spec.workloads = vec![
        WorkloadFamily::FlashCrowd,
        WorkloadFamily::Diurnal,
        WorkloadFamily::Regional,
        WorkloadFamily::Commuter,
    ];
    spec.policies = vec![PolicyKind::Lru, PolicyKind::CostLfu];
    spec.shards = vec![1, 2];
    spec
}

/// A smaller grid timed per sweep worker count.
fn workers_spec() -> SweepSpec {
    let mut spec = SweepSpec::smoke();
    spec.name = "bench-workers".into();
    spec.duration_s = 60.0;
    spec.users = vec![120];
    spec.area_side_m = 1_000.0;
    spec.demand_classes = 8;
    spec.workloads = vec![WorkloadFamily::Stationary, WorkloadFamily::FlashCrowd];
    spec.policies = vec![PolicyKind::Lru, PolicyKind::CostLfu];
    spec
}

fn main() {
    let spec = headline_spec();
    let cells = spec.num_cells();

    let serial = run_sweep(&spec, 1).expect("serial sweep");
    let (pooled, stats) = measure("sweep/headline/pooled", 10, || {
        run_sweep(&spec, 0).expect("pooled sweep")
    });
    assert_eq!(
        serial, pooled,
        "the sweep report must not depend on the worker count"
    );
    let requests: u64 = pooled.outcomes.iter().map(|o| o.requests).sum();
    let cells_per_s = cells as f64 / stats.median_s;
    eprintln!(
        "[sweep] {cells} cells ({requests} requests) \
         ({cells_per_s:.2} cells/s at the median), fingerprint {:016x}, \
         identical across worker counts",
        pooled.fingerprint
    );
    write_bench_json(
        &repo_root(),
        "sweep",
        &stats,
        &[
            ("cells", cells as f64),
            ("requests", requests as f64),
            ("wall_clock_s", stats.median_s),
            ("cells_per_s", cells_per_s),
            ("requests_per_s", requests as f64 / stats.median_s),
            ("identical_across_workers", 1.0),
        ],
    );

    // The small grid end to end, per sweep worker count.
    let spec = workers_spec();
    for workers in [1usize, 2, 4] {
        measure(&format!("sweep/workers/{workers}"), 10, || {
            run_sweep(&spec, workers).expect("sweep runs")
        });
    }
}

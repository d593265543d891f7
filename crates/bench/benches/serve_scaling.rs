//! Bench target for the online serving engine: request throughput as
//! users and requests scale.
//!
//! Two parts:
//!
//! 1. a headline scaling run — 10 000 users served until ≥100 000
//!    requests have fired, timed over 10 samples — printing median
//!    wall-clock and **per-core** requests/second (the classic engine is
//!    single-threaded, so one core is what it occupies; the normalised
//!    figure is the one comparable against the sharded engine's pool)
//!    and writing `BENCH_serve_scaling.json` at the repository root;
//! 2. timings of complete serving runs at increasing user counts on the
//!    paper's default radio footprint.

use trimcaching_bench::{measure, repo_root, write_bench_json};
use trimcaching_modellib::builders::{FoundationSpec, LoraLibraryBuilder};
use trimcaching_runtime::{serve, CostAwareLfu, ServeConfig};
use trimcaching_sim::TopologyConfig;
use trimcaching_wireless::RadioParams;

/// Dense-user serving: thousands of users per cell downloading
/// lightweight LoRA-adapted models, with the activity probability set to
/// the live workload's measured concurrency (~1%) rather than the
/// offline p_A = 0.5 (see tests/runtime_serving.rs for the rationale).
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

fn main() {
    // Headline run: >=100k requests over 10k users.
    let users = 10_000;
    let scenario = scenario_with_users(users);
    // 10 req/user over the run -> ~100k requests in expectation.
    let config = ServeConfig::paper_defaults()
        .with_duration_s(200.0)
        .with_request_rate_hz(0.05)
        .with_seed(2024);
    let (report, stats) = measure(&format!("serve/headline/{users}"), 10, || {
        serve(&scenario, &CostAwareLfu, None, &config).expect("serve runs")
    });
    let requests = report.metrics.requests;
    // The classic engine replays on exactly one core; dividing by the
    // cores occupied (1) makes the figure comparable with the sharded
    // engine's per-core throughput instead of silently flattering
    // whichever run had more hardware.
    let cores_used = 1.0;
    let throughput = requests as f64 / stats.median_s;
    eprintln!(
        "[serve_scaling] {users} users, {requests} requests \
         ({:.0} req/s at the median on {cores_used} core = {:.0} req/s/core), \
         hit ratio {:.4}",
        throughput,
        throughput / cores_used,
        report.metrics.hit_ratio()
    );
    write_bench_json(
        &repo_root(),
        "serve_scaling",
        &stats,
        &[
            ("users", users as f64),
            ("requests", requests as f64),
            ("throughput_req_s", throughput),
            ("cores_used", cores_used),
            ("throughput_req_s_core", throughput / cores_used),
            (
                "p95_latency_s",
                report.metrics.p95_latency_s().unwrap_or(f64::NAN),
            ),
            ("bytes_downloaded", report.metrics.bytes_downloaded as f64),
            (
                "backhaul_bytes_moved",
                report.metrics.backhaul_bytes_moved as f64,
            ),
        ],
    );

    // Complete runs at increasing user counts.
    for users in [100usize, 1_000, 10_000] {
        let scenario = scenario_with_users(users);
        let config = ServeConfig::paper_defaults()
            .with_duration_s(60.0)
            .with_request_rate_hz(0.05)
            .with_seed(7);
        measure(&format!("serve/users/{users}"), 10, || {
            serve(&scenario, &CostAwareLfu, None, &config).expect("serve runs")
        });
    }
}

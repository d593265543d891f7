//! Bench target for the online re-placement controller: what does
//! closing the loop cost when nothing drifts, and what does one full
//! adaptive run cost when it does?
//!
//! Acceptance (asserted here, recorded in EXPERIMENTS.md):
//!
//! * on a **stationary** workload — where the controller ticks, counts
//!   and checks for drift every 30 s but never re-plans — the
//!   controller's overhead is at most **5% of steady-state replay
//!   throughput** (fastest of repeated order-alternated paired runs);
//! * a controller-enabled run is byte-identical across repeats (the
//!   timing loop would silently hide nondeterminism).

use trimcaching_bench::measure_paired;
use trimcaching_modellib::builders::{FoundationSpec, LoraLibraryBuilder};
use trimcaching_runtime::{serve, ControlConfig, CostAwareLfu, ServeConfig};
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

/// Steady-state controller: ticks and estimates every 30 s, drift
/// detection armed, but the stationary workload never trips it.
fn steady_control() -> ControlConfig {
    ControlConfig::paper_defaults().with_tick_s(30.0)
}

fn main() {
    // Controller-overhead acceptance: paired runs, identical seeds,
    // with and without the control loop, on 5k users of stationary
    // traffic.
    let users = 5_000;
    let scenario = scenario_with_users(users);
    let base = ServeConfig::paper_defaults()
        .with_duration_s(300.0)
        .with_request_rate_hz(0.05)
        .with_seed(2024);
    let controlled = base.clone().with_control(steady_control());

    let reference = serve(&scenario, &CostAwareLfu, None, &controlled).expect("serve runs");
    assert!(
        reference.metrics.control_ticks >= 3,
        "the control loop must actually tick"
    );
    assert_eq!(
        reference.metrics.replans_triggered, 0,
        "a stationary workload must not trip the drift detector"
    );
    assert_eq!(
        reference,
        serve(&scenario, &CostAwareLfu, None, &controlled).expect("serve runs"),
        "controller-enabled runs must be deterministic"
    );

    // Every run of either side, warm-ups included, serves the same
    // requests.
    let rounds = 25;
    let mut off_requests = Vec::with_capacity(rounds + 1);
    let mut on_requests = Vec::with_capacity(rounds + 1);
    let run = |config: &ServeConfig, requests: &mut Vec<u64>| {
        let report = serve(&scenario, &CostAwareLfu, None, config).expect("serve runs");
        requests.push(report.metrics.requests);
        report
    };
    let (off, on) = measure_paired(
        [
            "adaptive_serving/serve/static",
            "adaptive_serving/serve/controlled",
        ],
        rounds,
        || run(&base, &mut off_requests),
        || run(&controlled, &mut on_requests),
    );
    assert_eq!(off_requests, on_requests);
    let (off_best, on_best) = (off.min_s, on.min_s);
    let overhead = on_best / off_best - 1.0;
    let requests = reference.metrics.requests;
    eprintln!(
        "[adaptive_serving] {users} users, {requests} requests: \
         {:.0} req/s static vs {:.0} req/s controlled \
         (controller overhead {:+.2}%)",
        requests as f64 / off_best,
        requests as f64 / on_best,
        overhead * 100.0
    );
    assert!(
        overhead <= 0.05,
        "steady-state controller overhead {:.2}% exceeds the 5% budget",
        overhead * 100.0
    );
}

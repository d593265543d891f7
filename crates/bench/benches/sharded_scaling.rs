//! Bench target for the region-sharded serving engine: per-core
//! throughput versus shard count, with the thread-count determinism
//! check run inline.
//!
//! A district-scale city (4 000 users on clustered demand) is served at
//! `R ∈ {1, 2, 4}` shards. Each `R` runs once on a single worker thread
//! and is then timed on the full pool over 10 samples, asserting the
//! merged reports are identical and printing **per-core**
//! requests/second at the median (wall-clock divided by the workers the
//! pool actually occupies — on a single-core host the pool runs
//! sequentially and the per-core figure is the honest one). The `R = 4`
//! row lands in `BENCH_sharded_scaling.json` at the repository root.

use trimcaching_bench::{host_cores, measure, repo_root, write_bench_json};
use trimcaching_runtime::{CostAwareLfu, ServeConfig, ShardedServeEngine};
use trimcaching_sim::experiments::RunConfig;
use trimcaching_sim::CityScaleConfig;

fn scenario() -> trimcaching_scenario::Scenario {
    let config = RunConfig::reduced();
    let library = config.build_library(trimcaching_sim::experiments::LibraryKind::Special);
    let mut city = CityScaleConfig::district()
        .with_users(4_000)
        .with_demand_classes(64);
    city.area_side_m = 2_000.0;
    city.capacity_gb = 0.4;
    city.generate(&library, config.monte_carlo.seed, 0)
        .expect("city generates")
}

fn serve_config() -> ServeConfig {
    ServeConfig::paper_defaults()
        .with_seed(2024)
        .with_duration_s(120.0)
        .with_request_rate_hz(0.05)
        .with_mobility_slot_s(10.0)
}

fn main() {
    let scenario = scenario();
    let config = serve_config();

    for shards in [1usize, 2, 4] {
        let serial = ShardedServeEngine::new(&scenario, &CostAwareLfu, config.clone(), shards)
            .expect("engine builds")
            .with_threads(1)
            .run()
            .expect("serial run");
        let (pooled, stats) = measure(&format!("sharded/shards/{shards}"), 10, || {
            ShardedServeEngine::new(&scenario, &CostAwareLfu, config.clone(), shards)
                .expect("engine builds")
                .with_threads(0)
                .run()
                .expect("pooled run")
        });
        assert_eq!(
            serial, pooled,
            "R={shards}: the merged trace must not depend on the worker-thread count"
        );
        let cores = host_cores().min(shards) as f64;
        let throughput = pooled.metrics.requests as f64 / stats.median_s;
        eprintln!(
            "[sharded_scaling] R={shards}: {} requests \
             ({throughput:.0} req/s at the median on {cores} core(s) = {:.0} req/s/core), \
             hit ratio {:.4}, identical across thread counts",
            pooled.metrics.requests,
            throughput / cores,
            pooled.metrics.hit_ratio()
        );
        if shards == 4 {
            let fields = [
                ("shards", shards as f64),
                ("requests", pooled.metrics.requests as f64),
                ("throughput_req_s", throughput),
                ("cores_used", cores),
                ("throughput_req_s_core", throughput / cores),
                (
                    "p95_latency_s",
                    pooled.metrics.p95_latency_s().unwrap_or(f64::NAN),
                ),
                ("bytes_downloaded", pooled.metrics.bytes_downloaded as f64),
                (
                    "backhaul_bytes_moved",
                    pooled.metrics.backhaul_bytes_moved as f64,
                ),
                ("identical_across_threads", 1.0),
            ];
            write_bench_json(&repo_root(), "sharded_scaling", &stats, &fields);
        }
    }
}

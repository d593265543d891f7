//! Bench target for block-granular cache fills: backhaul bytes moved
//! and serving latency under whole-model versus block-granular
//! transfers, on a shared-block and a fully disjoint library of equal
//! naive footprint, with and without backhaul congestion feedback.
//!
//! Acceptance (asserted here, recorded in EXPERIMENTS.md):
//!
//! * on the shared-block library, block-granular fills move **strictly
//!   fewer** backhaul bytes than whole-model fills;
//! * on the fully disjoint library the two granularities move **equal**
//!   bytes (and produce identical metrics);
//! * same-seed block-granular runs are byte-identical.

use trimcaching_bench::measure;
use trimcaching_modellib::ModelLibrary;
use trimcaching_runtime::{serve, CostAwareLfu, FillGranularity, ServeConfig};
use trimcaching_sim::TopologyConfig;

const BACKBONE_BYTES: u64 = 80_000_000;
const HEAD_BYTES: u64 = 20_000_000;
const MODELS_PER_BACKBONE: usize = 10;
const BACKBONES: usize = 3;

/// Thirty 100 MB models: ten heads per 80 MB shared backbone.
fn shared_library() -> ModelLibrary {
    let mut b = ModelLibrary::builder();
    for f in 0..BACKBONES {
        for i in 0..MODELS_PER_BACKBONE {
            b.add_model_with_blocks(
                format!("fm{f}/m{i}"),
                "t",
                &[
                    (format!("fm{f}/backbone"), BACKBONE_BYTES),
                    (format!("fm{f}/m{i}/head"), HEAD_BYTES),
                ],
            )
            .expect("model builds");
        }
    }
    b.build().expect("library builds")
}

/// The same thirty model sizes with no common blocks.
fn disjoint_library() -> ModelLibrary {
    let mut b = ModelLibrary::builder();
    for f in 0..BACKBONES {
        for i in 0..MODELS_PER_BACKBONE {
            b.add_model_with_blocks(
                format!("fm{f}/m{i}"),
                "t",
                &[
                    (format!("fm{f}/m{i}/backbone"), BACKBONE_BYTES),
                    (format!("fm{f}/m{i}/head"), HEAD_BYTES),
                ],
            )
            .expect("model builds");
        }
    }
    b.build().expect("library builds")
}

fn scenario(library: &ModelLibrary) -> trimcaching_scenario::Scenario {
    TopologyConfig::paper_defaults()
        .with_users(60)
        .with_capacity_gb(0.5)
        .generate(library, 2024, 0)
        .expect("topology generates")
}

fn config(granularity: FillGranularity, congestion: bool) -> ServeConfig {
    // A 1 Gbps ingest link: an 80 MB backbone takes ~0.64 s uncontended,
    // so transfer queues actually form under 60 users of traffic.
    ServeConfig::paper_defaults()
        .with_seed(2024)
        .with_cloud_ingest_bps(1.0e9)
        .with_granularity(granularity)
        .with_congestion_aware(congestion)
}

fn main() {
    let shared = scenario(&shared_library());
    let disjoint = scenario(&disjoint_library());

    eprintln!(
        "[block_transfer] library | granularity | congestion | backhaul MB | p95 latency | \
         block hit ratio | peak queue"
    );
    let mut results = Vec::new();
    for (lib_name, scenario) in [("shared", &shared), ("disjoint", &disjoint)] {
        for (gran_name, granularity) in [
            ("whole-model", FillGranularity::WholeModel),
            ("block", FillGranularity::Block),
        ] {
            for congestion in [true, false] {
                let report = serve(
                    scenario,
                    &CostAwareLfu,
                    None,
                    &config(granularity, congestion),
                )
                .expect("serve runs");
                let m = &report.metrics;
                eprintln!(
                    "[block_transfer] {lib_name} | {gran_name} | {} | {:>8.1} | {:>6.0} ms | {:.4} | {}",
                    if congestion { "on" } else { "off" },
                    m.backhaul_bytes_moved as f64 / 1e6,
                    m.p95_latency_s().unwrap_or(f64::NAN) * 1e3,
                    m.block_hit_ratio(),
                    m.peak_transfer_queue_depth,
                );
                results.push((lib_name, gran_name, congestion, m.backhaul_bytes_moved));
            }
        }
    }
    let moved = |lib: &str, gran: &str, congestion: bool| {
        results
            .iter()
            .find(|(l, g, c, _)| *l == lib && *g == gran && *c == congestion)
            .expect("variant ran")
            .3
    };
    // Acceptance: sharing pays off on the wire, and only there.
    assert!(
        moved("shared", "block", true) < moved("shared", "whole-model", true),
        "block fills must move strictly fewer bytes on the shared library"
    );
    assert_eq!(
        moved("disjoint", "block", true),
        moved("disjoint", "whole-model", true),
        "granularities must coincide on a disjoint library"
    );
    // Acceptance: same-seed block-granular runs are byte-identical.
    let a = serve(
        &shared,
        &CostAwareLfu,
        None,
        &config(FillGranularity::Block, true),
    )
    .expect("serve runs");
    let b = serve(
        &shared,
        &CostAwareLfu,
        None,
        &config(FillGranularity::Block, true),
    )
    .expect("serve runs");
    assert_eq!(a, b, "same-seed block-granular runs must be byte-identical");

    // Wall-clock cost of the pipeline itself: complete block-granular
    // runs versus the whole-model baseline on the shared library.
    for (name, granularity) in [
        ("whole-model", FillGranularity::WholeModel),
        ("block", FillGranularity::Block),
    ] {
        let (report, stats) = measure(&format!("block_transfer/serve/{name}"), 10, || {
            serve(&shared, &CostAwareLfu, None, &config(granularity, true)).expect("serve runs")
        });
        eprintln!(
            "[block_transfer] shared/{name}: {} requests ({:.0} req/s at the median), \
             hit ratio {:.4}",
            report.metrics.requests,
            report.metrics.requests as f64 / stats.median_s,
            report.metrics.hit_ratio()
        );
    }
}

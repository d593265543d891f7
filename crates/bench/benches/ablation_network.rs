//! Ablation bench: network-side sensitivity studies.
//!
//! Regenerates (at reduced repetition counts) the backhaul-throughput,
//! latency-budget and shadowing sweeps that probe how the reproduction's
//! network modelling choices move the cache-hit curves, and measures the
//! cost of one shadowed-channel evaluation.

use rand::rngs::StdRng;
use rand::SeedableRng;

use trimcaching_bench::measure;
use trimcaching_placement::{PlacementAlgorithm, TrimCachingGen};
use trimcaching_sim::experiments::{ablation, LibraryKind, RunConfig};
use trimcaching_sim::{MonteCarloConfig, TopologyConfig};
use trimcaching_wireless::shadowing::ShadowedRayleigh;

fn table_config() -> RunConfig {
    RunConfig {
        monte_carlo: MonteCarloConfig {
            topologies: 3,
            fading_realisations: 20,
            seed: 2024,
            threads: 0,
        },
        models_per_backbone: 10,
        library_seed: 2024,
    }
}

fn main() {
    let cfg = table_config();
    for table in [
        ablation::backhaul_sweep(&cfg).expect("backhaul sweep runs"),
        ablation::deadline_sweep(&cfg).expect("deadline sweep runs"),
        ablation::shadowing_sweep(&cfg).expect("shadowing sweep runs"),
    ] {
        eprintln!("{}", table.to_markdown());
    }

    let library = cfg.build_library(LibraryKind::Special);
    let scenario = TopologyConfig::paper_defaults()
        .with_capacity_gb(0.75)
        .generate(&library, 2024, 0)
        .expect("topology generates");
    let placement = TrimCachingGen::new()
        .place(&scenario)
        .expect("placement runs")
        .placement;
    let fading = ShadowedRayleigh::with_sigma_db(6.0);

    measure(
        "ablation/network/shadowed_rayleigh_evaluation_x20",
        10,
        || {
            let mut rng = StdRng::seed_from_u64(5);
            scenario
                .average_hit_ratio_under(&placement, &fading, 20, &mut rng)
                .unwrap()
        },
    );
}

//! Ablation bench: sensitivity to the Zipf request-popularity exponent.

use trimcaching_bench::measure;
use trimcaching_placement::{PlacementAlgorithm, TrimCachingGen};
use trimcaching_sim::experiments::{ablation, LibraryKind, RunConfig};
use trimcaching_sim::{MonteCarloConfig, TopologyConfig};

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
    let table = ablation::zipf_sweep(&cfg).expect("zipf sweep runs");
    eprintln!("{}", table.to_markdown());

    let library = cfg.build_library(LibraryKind::Special);
    for exponent in [0.0, 0.8, 1.6] {
        let mut topology = TopologyConfig::paper_defaults().with_capacity_gb(0.75);
        topology.demand.zipf_exponent = exponent;
        let scenario = topology
            .generate(&library, 2024, 0)
            .expect("topology generates");
        measure(&format!("ablation/zipf/{exponent}"), 10, || {
            TrimCachingGen::new().place(&scenario).unwrap()
        });
    }
}

//! Ablation bench: the DP rounding parameter ε of TrimCaching Spec
//! (Algorithm 2 / Proposition 4) — hit-ratio vs. running-time trade-off.

use trimcaching_bench::measure;
use trimcaching_placement::{PlacementAlgorithm, TrimCachingSpec};
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
    let table = ablation::epsilon_sweep(&cfg).expect("epsilon sweep runs");
    eprintln!("{}", table.to_markdown());

    let library = cfg.build_library(LibraryKind::Special);
    let scenario = TopologyConfig::paper_defaults()
        .with_capacity_gb(0.75)
        .generate(&library, 2024, 0)
        .expect("topology generates");
    for epsilon in [0.0, 0.1, 0.5] {
        measure(&format!("ablation/epsilon/{epsilon}"), 10, || {
            TrimCachingSpec::new()
                .with_epsilon(epsilon)
                .place(&scenario)
                .unwrap()
        });
    }
}

//! Bench + regeneration target for Fig. 5 (general case).

use trimcaching_bench::measure;
use trimcaching_placement::{IndependentCaching, PlacementAlgorithm, TrimCachingGen};
use trimcaching_sim::experiments::{fig5, LibraryKind, RunConfig};
use trimcaching_sim::{MonteCarloConfig, TopologyConfig};

fn table_config() -> RunConfig {
    RunConfig {
        monte_carlo: MonteCarloConfig {
            topologies: 5,
            fading_realisations: 50,
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
        fig5::capacity_sweep(&cfg).expect("fig5a runs"),
        fig5::server_sweep(&cfg).expect("fig5b runs"),
        fig5::user_sweep(&cfg).expect("fig5c runs"),
    ] {
        eprintln!("{}", table.to_markdown());
        if let Some(gain) = table.average_relative_gain("trimcaching-gen", "independent-caching") {
            eprintln!(
                "[{}] average gain of Gen over Independent Caching: {:.1}%\n",
                table.id,
                gain * 100.0
            );
        }
    }

    let library = cfg.build_library(LibraryKind::General);
    let scenario = TopologyConfig::paper_defaults()
        .generate(&library, 2024, 0)
        .expect("topology generates");
    measure("fig5/placement/trimcaching-gen", 10, || {
        TrimCachingGen::new().place(&scenario).unwrap()
    });
    measure("fig5/placement/independent-caching", 10, || {
        IndependentCaching::new().place(&scenario).unwrap()
    });
}

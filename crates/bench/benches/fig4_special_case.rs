//! Bench + regeneration target for Fig. 4 (special case).
//!
//! Two parts:
//!
//! 1. the full Fig. 4(a)/(b)/(c) tables are regenerated once at reduced
//!    Monte-Carlo scale and printed (recorded in EXPERIMENTS.md);
//! 2. the harness times one placement by each of the three algorithms on
//!    the Fig. 4 default topology (M = 10, K = 30, I = 30,
//!    Q = 1 GB).

use trimcaching_bench::measure;
use trimcaching_placement::{
    IndependentCaching, PlacementAlgorithm, TrimCachingGen, TrimCachingSpec,
};
use trimcaching_sim::experiments::{fig4, LibraryKind, RunConfig};
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
    // Regenerate the three panels once and print them.
    let cfg = table_config();
    for table in [
        fig4::capacity_sweep(&cfg).expect("fig4a runs"),
        fig4::server_sweep(&cfg).expect("fig4b runs"),
        fig4::user_sweep(&cfg).expect("fig4c runs"),
    ] {
        eprintln!("{}", table.to_markdown());
        if let Some(gain) = table.average_relative_gain("trimcaching-spec", "independent-caching") {
            eprintln!(
                "[{}] average gain of Spec over Independent Caching: {:.1}%\n",
                table.id,
                gain * 100.0
            );
        }
    }

    // Per-placement optimisation time on the default Fig. 4 topology.
    let library = cfg.build_library(LibraryKind::Special);
    let scenario = TopologyConfig::paper_defaults()
        .generate(&library, 2024, 0)
        .expect("topology generates");
    measure("fig4/placement/trimcaching-spec", 10, || {
        TrimCachingSpec::new().place(&scenario).unwrap()
    });
    measure("fig4/placement/trimcaching-gen", 10, || {
        TrimCachingGen::new().place(&scenario).unwrap()
    });
    measure("fig4/placement/independent-caching", 10, || {
        IndependentCaching::new().place(&scenario).unwrap()
    });
}

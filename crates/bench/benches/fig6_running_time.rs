//! Bench + regeneration target for Fig. 6 — the running-time comparison
//! against the optimal solution.
//!
//! The harness directly measures what the figure reports: the optimisation
//! time of the exhaustive search, TrimCaching Spec (ε = 0) and TrimCaching
//! Gen on the reduced 400 m scenario, for both the special-case (Fig. 6a)
//! and the general-case (Fig. 6b) libraries.

use trimcaching_bench::measure;
use trimcaching_placement::{
    ExhaustiveSearch, PlacementAlgorithm, TrimCachingGen, TrimCachingSpec,
};
use trimcaching_sim::experiments::fig6::{FIG6A_CAPACITY_GB, FIG6B_CAPACITY_GB};
use trimcaching_sim::experiments::{fig6, LibraryKind, RunConfig};
use trimcaching_sim::{MonteCarloConfig, TopologyConfig};

fn table_config() -> RunConfig {
    RunConfig {
        monte_carlo: MonteCarloConfig {
            topologies: 5,
            fading_realisations: 50,
            seed: 2024,
            threads: 0,
        },
        models_per_backbone: 5,
        library_seed: 2024,
    }
}

fn main() {
    let cfg = table_config();
    let a = fig6::special_case_vs_optimal(&cfg).expect("fig6a runs");
    eprintln!("{}", a.to_markdown());
    if let Some(speedup) = a.speedup("trimcaching-spec", "exhaustive-search") {
        eprintln!("[fig6a] TrimCaching Spec speedup over exhaustive search: {speedup:.0}x");
    }
    if let Some(speedup) = a.speedup("trimcaching-gen", "exhaustive-search") {
        eprintln!("[fig6a] TrimCaching Gen speedup over exhaustive search: {speedup:.0}x\n");
    }
    let b = fig6::general_case_runtime(&cfg).expect("fig6b runs");
    eprintln!("{}", b.to_markdown());
    if let Some(speedup) = b.speedup("trimcaching-gen", "trimcaching-spec") {
        eprintln!("[fig6b] TrimCaching Gen speedup over TrimCaching Spec: {speedup:.0}x\n");
    }

    // Special-case scenario (Fig. 6a).
    let special = cfg.build_library(LibraryKind::Special);
    let scenario_a = TopologyConfig::paper_small()
        .with_capacity_gb(FIG6A_CAPACITY_GB)
        .generate(&special, 2024, 0)
        .expect("topology generates");
    measure("fig6a/placement/exhaustive-search", 10, || {
        ExhaustiveSearch::new().place(&scenario_a).unwrap()
    });
    measure("fig6a/placement/trimcaching-spec-eps0", 10, || {
        TrimCachingSpec::new()
            .with_epsilon(0.0)
            .place(&scenario_a)
            .unwrap()
    });
    measure("fig6a/placement/trimcaching-gen", 10, || {
        TrimCachingGen::new().place(&scenario_a).unwrap()
    });

    // General-case scenario (Fig. 6b).
    let general = cfg.build_library(LibraryKind::General);
    let scenario_b = TopologyConfig::paper_small()
        .with_capacity_gb(FIG6B_CAPACITY_GB)
        .generate(&general, 2024, 0)
        .expect("topology generates");
    measure("fig6b/placement/trimcaching-spec-eps0", 10, || {
        TrimCachingSpec::new()
            .with_epsilon(0.0)
            .place(&scenario_b)
            .unwrap()
    });
    measure("fig6b/placement/trimcaching-gen", 10, || {
        TrimCachingGen::new().place(&scenario_b).unwrap()
    });
}

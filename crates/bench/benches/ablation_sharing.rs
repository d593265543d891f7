//! Ablation bench: how the TrimCaching gain depends on the freezing depth
//! (and hence on the fraction of shared bytes in the library).

use trimcaching_bench::measure;
use trimcaching_modellib::builders::SpecialCaseBuilder;
use trimcaching_placement::{PlacementAlgorithm, TrimCachingGen};
use trimcaching_sim::experiments::{ablation, RunConfig};
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
    let table = ablation::sharing_depth_sweep(&cfg).expect("sharing sweep runs");
    eprintln!("{}", table.to_markdown());
    if let Some(gain) = table.average_relative_gain("trimcaching-gen", "independent-caching") {
        eprintln!(
            "[ablation-sharing] average gain of Gen over Independent Caching: {:.1}%\n",
            gain * 100.0
        );
    }

    // Measure placement time on a maximally shared library (deep freezing).
    let library = SpecialCaseBuilder::paper_setup()
        .models_per_backbone(10)
        .distinct_freeze_depths(Some(1))
        .build(2024);
    let scenario = TopologyConfig::paper_defaults()
        .with_capacity_gb(0.75)
        .generate(&library, 2024, 0)
        .expect("topology generates");
    measure("ablation/sharing/gen_on_deeply_shared_library", 10, || {
        TrimCachingGen::new().place(&scenario).unwrap()
    });
}

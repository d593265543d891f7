//! Ablation bench: optimisation time of the three algorithms as the model
//! library grows (Theorem 1's `O(M·I)` claim for TrimCaching Spec in the
//! special case, versus the greedy's growth).

use trimcaching_bench::measure;
use trimcaching_modellib::builders::SpecialCaseBuilder;
use trimcaching_placement::{
    IndependentCaching, PlacementAlgorithm, TrimCachingGen, TrimCachingSpec,
};
use trimcaching_sim::experiments::{ablation, RunConfig};
use trimcaching_sim::{MonteCarloConfig, TopologyConfig};

fn main() {
    let cfg = RunConfig {
        monte_carlo: MonteCarloConfig {
            topologies: 1,
            fading_realisations: 0,
            seed: 2024,
            threads: 1,
        },
        models_per_backbone: 10,
        library_seed: 2024,
    };
    let table = ablation::library_scaling(&cfg).expect("scaling table runs");
    eprintln!("{}", table.to_markdown());

    for per_backbone in [5usize, 10, 20] {
        let library = SpecialCaseBuilder::paper_setup()
            .models_per_backbone(per_backbone)
            .build(2024);
        let scenario = TopologyConfig::paper_defaults()
            .generate(&library, 2024, 0)
            .expect("topology generates");
        let models = per_backbone * 3;
        measure(
            &format!("scaling/library_size/trimcaching-spec/{models}"),
            10,
            || TrimCachingSpec::new().place(&scenario).unwrap(),
        );
        measure(
            &format!("scaling/library_size/trimcaching-gen/{models}"),
            10,
            || TrimCachingGen::new().place(&scenario).unwrap(),
        );
        measure(
            &format!("scaling/library_size/independent-caching/{models}"),
            10,
            || IndependentCaching::new().place(&scenario).unwrap(),
        );
    }
}

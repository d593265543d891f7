//! Cross-crate integration test of the LoRA-marketplace library,
//! exercised through the public facade API.

use rand::rngs::StdRng;
use rand::SeedableRng;

use trimcaching::prelude::*;
use trimcaching::wireless::geometry::{DeploymentArea, Point};

#[test]
fn lora_marketplace_end_to_end_shows_the_sharing_advantage() {
    // A LoRA catalogue: one 6 GB foundation, 60 tenants of ~40 MB each.
    let library = LoraLibraryBuilder::marketplace()
        .adapters_per_foundation(60)
        .build(3);
    let stats = LibraryStats::compute(&library);
    assert!(stats.sharing_savings_ratio > 0.9);

    let mut rng = StdRng::seed_from_u64(5);
    let area = DeploymentArea::new(400.0).unwrap();
    let users: Vec<Point> = (0..20).map(|_| area.sample_uniform(&mut rng)).collect();
    let demand = DemandConfig {
        zipf_exponent: 1.1,
        // Multi-gigabyte LLM downloads get a minutes-scale installation
        // budget rather than the paper's sub-second budget for small models.
        deadline_range_s: (120.0, 240.0),
        inference_range_s: (0.5, 2.0),
        ..DemandConfig::paper_defaults()
    }
    .generate(20, library.num_models(), &mut rng)
    .unwrap();
    let scenario = Scenario::builder()
        .library(library)
        .servers(vec![EdgeServer::new(
            ServerId(0),
            Point::new(200.0, 200.0),
            gigabytes(8.0),
        )
        .unwrap()])
        .users_at(&users)
        .demand(demand)
        .build()
        .unwrap();

    let gen = TrimCachingGen::new().place(&scenario).unwrap();
    let lazy = TrimCachingGenLazy::new().place(&scenario).unwrap();
    let independent = IndependentCaching::new().place(&scenario).unwrap();

    assert_eq!(gen.placement, lazy.placement);
    // The 8 GB server fits one tenant without sharing, dozens with it.
    assert!(independent.placement.len() <= 1);
    assert!(gen.placement.len() > 10);
    assert!(gen.hit_ratio > independent.hit_ratio);
    assert!(scenario.satisfies_capacities(&gen.placement));
}

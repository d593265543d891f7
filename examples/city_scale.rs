//! City scale: a Poisson-deployed district on the coverage-pruned sparse
//! eligibility representation.
//!
//! Builds a ~200-server / 5 000-user district without ever allocating
//! the dense `M × K × I` eligibility cube, runs the CELF lazy greedy on
//! it, and prints how sparse the service-eligibility indicator actually
//! is at this scale.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example city_scale
//! ```

#![expect(
    clippy::disallowed_methods,
    reason = "the example reports how long building the district takes"
)]

use std::time::Instant;

use trimcaching::modellib::builders::SpecialCaseBuilder;
use trimcaching::placement::{TopPopularity, TrimCachingGenLazy};
use trimcaching::prelude::*;
use trimcaching::sim::CityScaleConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The usual parameter-sharing library (3 backbones x 8 models).
    let library = SpecialCaseBuilder::paper_setup()
        .models_per_backbone(8)
        .build(2024);

    // 2. A 5 km x 5 km district: servers dropped by a Poisson point
    //    process at 8 /km² (~200 expected), 5 000 users, sparse
    //    eligibility forced (the district preset's default).
    let mut config = CityScaleConfig::district();
    config.capacity_gb = 0.5;
    let build_start = Instant::now();
    let scenario = config.generate(&library, 42, 0)?;
    let build_elapsed = build_start.elapsed();

    let eligibility = scenario.eligibility();
    let cells =
        scenario.num_servers() as f64 * scenario.num_users() as f64 * scenario.num_models() as f64;
    println!(
        "district: {} servers (λ·area = {:.0}), {} users, {} models — built in {build_elapsed:.2?}",
        scenario.num_servers(),
        config.expected_servers(),
        scenario.num_users(),
        scenario.num_models(),
    );
    println!(
        "eligibility: {} of {:.1}M triples eligible (density {:.4}), \
         representation = {:?}",
        eligibility.num_eligible(),
        cells / 1e6,
        eligibility.density(),
        scenario.eligibility_repr(),
    );

    // 3. Placement: CELF lazy greedy against the popularity baseline.
    for outcome in [
        TrimCachingGenLazy::new().place(&scenario)?,
        TopPopularity::new().place(&scenario)?,
    ] {
        println!(
            "{:<22} hit ratio {:.4}  ({} gain evaluations, {:.2?})",
            outcome.algorithm, outcome.hit_ratio, outcome.evaluations, outcome.runtime,
        );
    }
    Ok(())
}

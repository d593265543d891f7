//! Dense vs. sparse eligibility: objective evaluation and lazy-greedy
//! placement across deployment scales, plus the city-scale acceptance
//! run.
//!
//! For `M ∈ {10, 100, 500}` Poisson-deployed servers the same snapshot
//! is built twice — dense `M × K × I` tensor and coverage-pruned CSR —
//! and both `hit_ratio` evaluation and end-to-end CELF lazy-greedy
//! placement are timed on each. The two paths are asserted to produce
//! bit-identical results before any timing starts.
//!
//! The final section builds the 1 000-server / 50 000-user city preset
//! with the sparse representation only (at this bench's 9-model library
//! the dense cube would hold ~0.45 G cells — ~1.2 G with the full
//! 24-model paper library) and runs lazy greedy once, printing
//! wall-clock numbers.

use std::time::Duration;

use trimcaching_bench::{measure, timed};
use trimcaching_modellib::builders::SpecialCaseBuilder;
use trimcaching_placement::{PlacementAlgorithm, TrimCachingGenLazy};
use trimcaching_scenario::{EligibilityRepr, Scenario};
use trimcaching_sim::CityScaleConfig;

/// A Poisson district sized for roughly `target_servers` servers with a
/// fixed ~25 users per server, built with the requested representation.
fn district(target_servers: usize, repr: EligibilityRepr) -> Scenario {
    let library = SpecialCaseBuilder::paper_setup()
        .models_per_backbone(3)
        .build(2024);
    let lambda = 8.0;
    let area_km2 = target_servers as f64 / lambda;
    let mut config = CityScaleConfig::district()
        .with_users(target_servers * 25)
        .with_repr(repr);
    config.area_side_m = (area_km2.sqrt() * 1_000.0).max(500.0);
    config.capacity_gb = 0.4;
    config
        .generate(&library, 2024, 0)
        .expect("district generates")
}

fn main() {
    for target in [10usize, 100, 500] {
        let dense = district(target, EligibilityRepr::Dense);
        let sparse = district(target, EligibilityRepr::Sparse);
        assert_eq!(dense.num_servers(), sparse.num_servers());
        let lazy = TrimCachingGenLazy::new();
        let from_dense = lazy.place(&dense).expect("dense placement");
        let from_sparse = lazy.place(&sparse).expect("sparse placement");
        assert_eq!(from_dense.placement, from_sparse.placement);
        assert_eq!(
            from_dense.hit_ratio.to_bits(),
            from_sparse.hit_ratio.to_bits()
        );
        eprintln!(
            "[sparse_eligibility] M = {} (target {target}), K = {}, I = {}: \
             density {:.4}, hit ratio {:.4}",
            dense.num_servers(),
            dense.num_users(),
            dense.num_models(),
            sparse.eligibility().density(),
            from_sparse.hit_ratio,
        );

        let m = dense.num_servers();
        let placement = &from_sparse.placement;
        measure(
            &format!("sparse_eligibility/objective/dense/{m}"),
            10,
            || dense.hit_ratio(placement),
        );
        measure(
            &format!("sparse_eligibility/objective/sparse/{m}"),
            10,
            || sparse.hit_ratio(placement),
        );
        if target <= 100 {
            measure(
                &format!("sparse_eligibility/lazy_greedy/dense/{m}"),
                10,
                || TrimCachingGenLazy::new().place(&dense).unwrap(),
            );
        } else {
            // A timed loop over the dense path would dominate the whole
            // bench (tens of seconds per placement); report the one-shot
            // runtime measured by the equivalence pass above instead.
            eprintln!(
                "[sparse_eligibility] lazy_greedy/dense/{m}: {:.2?} one-shot \
                 (vs sparse {:.2?})",
                from_dense.runtime, from_sparse.runtime,
            );
        }
        measure(
            &format!("sparse_eligibility/lazy_greedy/sparse/{m}"),
            10,
            || TrimCachingGenLazy::new().place(&sparse).unwrap(),
        );
    }

    // Acceptance run: the 1 000-server / 50 000-user city builds sparse
    // (never allocating the dense cube) and lazy greedy completes on it.
    let library = SpecialCaseBuilder::paper_setup()
        .models_per_backbone(3)
        .build(2024);
    let city = CityScaleConfig::city();
    let (scenario, build_s) = timed(|| city.generate(&library, 2024, 0).expect("city generates"));
    assert!(scenario.eligibility().is_sparse());
    let outcome = TrimCachingGenLazy::new()
        .place(&scenario)
        .expect("city placement");
    eprintln!(
        "[sparse_eligibility] city: M = {}, K = {}, I = {} \
         ({:.2}e9 dense cells avoided), density {:.5}, \
         build {:.2?}, lazy greedy {:.2?} ({} evaluations), hit ratio {:.4}",
        scenario.num_servers(),
        scenario.num_users(),
        scenario.num_models(),
        (scenario.num_servers() as f64
            * scenario.num_users() as f64
            * scenario.num_models() as f64)
            / 1e9,
        scenario.eligibility().density(),
        Duration::from_secs_f64(build_s),
        outcome.runtime,
        outcome.evaluations,
        outcome.hit_ratio,
    );
}

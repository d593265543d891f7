//! Property: identity-clustered demand is bit-identical to singleton
//! demand.
//!
//! The clustered [`Demand`] form stores one matrix row per demand class
//! plus a user→class map, which is what makes million-user scenarios
//! buildable without the dense `K × I` triple. Its contract is that with
//! the identity map (as many classes as users) nothing changes at all:
//! the objective surface and the full serve trace must be *bit*-equal to
//! the singleton form over the same rows — not merely close.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trimcaching_modellib::builders::SpecialCaseBuilder;
use trimcaching_modellib::ModelId;
use trimcaching_runtime::{serve, Lru, ServeConfig};
use trimcaching_scenario::prelude::*;
use trimcaching_wireless::geometry::{DeploymentArea, Point};

/// Two scenarios differing only in the demand representation: singleton
/// rows vs the same rows behind an identity class map.
fn scenario_pair(num_users: usize, seed: u64) -> (Scenario, Scenario) {
    let library = SpecialCaseBuilder::paper_setup()
        .models_per_backbone(3)
        .build(4);
    let num_models = library.num_models();
    let mut rng = StdRng::seed_from_u64(seed);
    let area = DeploymentArea::paper_default();
    let positions: Vec<Point> = (0..num_users)
        .map(|_| area.sample_uniform(&mut rng))
        .collect();
    let demand = DemandConfig::paper_defaults()
        .generate(num_users, num_models, &mut rng)
        .unwrap();
    let row = |get: &dyn Fn(UserId, ModelId) -> f64| -> Vec<f64> {
        (0..num_users)
            .flat_map(|k| (0..num_models).map(move |i| (k, i)))
            .map(|(k, i)| get(UserId(k), ModelId(i)))
            .collect()
    };
    let probabilities = row(&|k, i| demand.probability(k, i).unwrap());
    let deadlines = row(&|k, i| demand.deadline_s(k, i).unwrap());
    let inference = row(&|k, i| demand.inference_s(k, i).unwrap());
    let clustered = Demand::clustered(
        num_models,
        probabilities,
        &deadlines,
        &inference,
        (0..num_users as u32).collect(),
    )
    .unwrap();
    let build = |demand: Demand| {
        Scenario::builder()
            .library(
                SpecialCaseBuilder::paper_setup()
                    .models_per_backbone(3)
                    .build(4),
            )
            .servers(vec![
                EdgeServer::new(ServerId(0), Point::new(300.0, 500.0), gigabytes(0.4)).unwrap(),
                EdgeServer::new(ServerId(1), Point::new(700.0, 500.0), gigabytes(0.4)).unwrap(),
            ])
            .users_at(&positions)
            .demand(demand)
            .build()
            .unwrap()
    };
    (build(demand), build(clustered))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn identity_clustering_preserves_the_objective_bitwise(
        num_users in 2usize..10,
        seed in 0u64..1024,
    ) {
        let (singleton, clustered) = scenario_pair(num_users, seed);
        let obj_s = singleton.objective();
        let obj_c = clustered.objective();
        prop_assert_eq!(obj_s.total_mass().to_bits(), obj_c.total_mass().to_bits());
        // Random placements must score bit-identically under both forms.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        for _ in 0..4 {
            let mut placement = singleton.empty_placement();
            for m in 0..singleton.num_servers() {
                for i in 0..singleton.num_models() {
                    if rng.gen_bool(0.4) {
                        let _ = placement.place(ServerId(m), ModelId(i));
                    }
                }
            }
            prop_assert_eq!(
                obj_s.expected_hits(&placement).to_bits(),
                obj_c.expected_hits(&placement).to_bits()
            );
            prop_assert_eq!(
                obj_s.hit_ratio(&placement).to_bits(),
                obj_c.hit_ratio(&placement).to_bits()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn identity_clustering_preserves_the_serve_trace(
        num_users in 2usize..8,
        seed in 0u64..256,
    ) {
        let (singleton, clustered) = scenario_pair(num_users, seed);
        let config = ServeConfig::smoke()
            .with_duration_s(30.0)
            .with_seed(seed ^ 0xace);
        let a = serve(&singleton, &Lru, None, &config).unwrap();
        let b = serve(&clustered, &Lru, None, &config).unwrap();
        // The whole report — metrics, windows, latencies, final caches —
        // must be identical, not just the headline ratios.
        prop_assert_eq!(a, b);
    }
}

//! Property-based equivalence of the two eligibility representations:
//! the dense `M × K × I` tensor and the coverage-pruned sparse CSR built
//! from the same scenario must both answer every point query exactly
//! like the pointwise definition `LatencyEvaluator::eligible` (both are
//! derived by one per-user kernel, so comparing them with each other
//! alone would compare the kernel with itself), and produce
//! **bit-identical** objective values for random placements.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use trimcaching::modellib::builders::{GeneralCaseBuilder, SpecialCaseBuilder};
use trimcaching::modellib::ModelId;
use trimcaching::prelude::*;
use trimcaching::scenario::LatencyEvaluator;
use trimcaching::wireless::geometry::{DeploymentArea, Point};

/// A user parked far outside every server's coverage.
const UNCOVERED: Point = Point { x: 1.0e5, y: 1.0e5 };

/// Deterministically builds the same random snapshot twice: once with the
/// dense tensor forced, once with the sparse representation forced.
fn build_pair(
    seed: u64,
    special: bool,
    num_servers: usize,
    num_users: usize,
    models_per_backbone: usize,
) -> (Scenario, Scenario) {
    let library = if special {
        SpecialCaseBuilder::paper_setup()
            .models_per_backbone(models_per_backbone)
            .build(seed)
    } else {
        GeneralCaseBuilder::paper_setup()
            .classes_per_backbone(models_per_backbone)
            .build(seed)
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let area = DeploymentArea::paper_default();
    let servers: Vec<EdgeServer> = (0..num_servers)
        .map(|m| {
            EdgeServer::new(ServerId(m), area.sample_uniform(&mut rng), gigabytes(0.6)).unwrap()
        })
        .collect();
    // A mix of users anchored near servers (covered, often multiply),
    // fully random ones (sometimes uncovered) and one parked out of
    // range (always uncovered) keeps both the eligible and the empty
    // rows of the indicator exercised.
    let users: Vec<Point> = (0..num_users)
        .map(|k| {
            if k % 3 == 0 {
                area.sample_uniform(&mut rng)
            } else {
                let anchor = servers[rng.gen_range(0..servers.len())].position();
                let r: f64 = rng.gen_range(5.0..260.0);
                let a: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
                area.clamp(anchor.translated(r * a.cos(), r * a.sin()))
            }
        })
        .chain([UNCOVERED])
        .collect();
    let demand = DemandConfig::paper_defaults()
        .generate(users.len(), library.num_models(), &mut rng)
        .unwrap();
    let base = Scenario::builder()
        .library(library)
        .servers(servers)
        .users_at(&users)
        .demand(demand);
    let dense = base
        .clone()
        .eligibility_repr(EligibilityRepr::Dense)
        .build()
        .unwrap();
    let sparse = base
        .eligibility_repr(EligibilityRepr::Sparse)
        .build()
        .unwrap();
    (dense, sparse)
}

/// Requires every `(m, k, i)` triple of the scenario's eligibility to
/// equal `LatencyEvaluator::eligible` on the scenario's own radio state.
fn assert_matches_oracle(scenario: &Scenario) {
    let oracle = LatencyEvaluator::new(
        scenario.library(),
        scenario.demand(),
        scenario.coverage(),
        scenario.backhaul(),
        scenario.rates(),
    )
    .unwrap();
    let view = scenario.eligibility();
    for m in 0..scenario.num_servers() {
        for k in 0..scenario.num_users() {
            for i in 0..scenario.num_models() {
                prop_assert_eq!(
                    view.eligible(m, UserId(k), ModelId(i)),
                    oracle.eligible(m, UserId(k), ModelId(i)).unwrap(),
                    "{:?} disagrees with the oracle at ({}, {}, {})",
                    view.repr(),
                    m,
                    k,
                    i
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Dense and sparse both equal the pointwise definition on every
    /// triple (uncovered users included), and agree on the candidate
    /// iterators.
    #[test]
    fn representations_agree_pointwise(
        seed in 0u64..5000,
        special in any::<bool>(),
        num_servers in 2usize..5,
        num_users in 3usize..10,
        models_per_backbone in 2usize..4,
    ) {
        let (dense, sparse) = build_pair(seed, special, num_servers, num_users, models_per_backbone);
        prop_assert!(!dense.eligibility().is_sparse());
        prop_assert!(sparse.eligibility().is_sparse());
        prop_assert!(dense.coverage().servers_of_user(num_users).unwrap().is_empty());
        assert_matches_oracle(&dense);
        assert_matches_oracle(&sparse);
        let d = dense.eligibility();
        let s = sparse.eligibility();
        prop_assert_eq!(d.num_eligible(), s.num_eligible());
        for m in 0..num_servers {
            prop_assert_eq!(
                d.pairs_for_server(m).collect::<Vec<_>>(),
                s.pairs_for_server(m).collect::<Vec<_>>()
            );
            prop_assert_eq!(
                d.server_models(m).collect::<Vec<_>>(),
                s.server_models(m).collect::<Vec<_>>()
            );
        }
        for k in 0..dense.num_users() {
            for i in 0..dense.num_models() {
                prop_assert_eq!(
                    d.servers_for(UserId(k), ModelId(i)).collect::<Vec<_>>(),
                    s.servers_for(UserId(k), ModelId(i)).collect::<Vec<_>>()
                );
            }
        }
    }

    /// `hit_ratio` and `marginal_hits` are bit-identical across the two
    /// representations for random placements.
    #[test]
    fn objectives_are_bit_identical(
        seed in 0u64..5000,
        special in any::<bool>(),
        num_servers in 2usize..5,
        num_users in 3usize..10,
        placements in 1usize..12,
    ) {
        let (dense, sparse) = build_pair(seed, special, num_servers, num_users, 3);
        let d = dense.objective();
        let s = sparse.objective();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let mut placement = dense.empty_placement();
        for _ in 0..placements {
            let m = ServerId(rng.gen_range(0..num_servers));
            let i = ModelId(rng.gen_range(0..dense.num_models()));
            // Marginal gains agree *before* the element is added...
            prop_assert_eq!(
                d.marginal_hits(&placement, m, i).to_bits(),
                s.marginal_hits(&placement, m, i).to_bits(),
                "marginal_hits diverged at ({:?}, {:?})", m, i
            );
            placement.place(m, i).unwrap();
            // ...and the hit ratio agrees after.
            prop_assert_eq!(
                d.hit_ratio(&placement).to_bits(),
                s.hit_ratio(&placement).to_bits(),
                "hit_ratio diverged"
            );
            prop_assert_eq!(
                dense.hit_ratio(&placement).to_bits(),
                sparse.hit_ratio(&placement).to_bits()
            );
        }
    }
}

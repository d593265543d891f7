//! The greedy solvers' marginal gains, anchored on the pointwise
//! definition.
//!
//! TrimCaching Gen (eager and lazy), Independent Caching and TrimCaching
//! Spec all score `(server, model)` pairs through one served-set
//! `Coverage` per solve. Comparing the eager and lazy greedies with each
//! other would compare that primitive with itself, so these tests run a
//! reference greedy that steps alongside the solver and requires, at
//! every selection step, every candidate's coverage gain to equal
//! `HitRatioObjective::marginal_hits` bit for bit — over dense, sparse
//! and masked eligibility, under ground-truth and estimated demand. The
//! solver's placement must then equal the reference's.
//!
//! The last tests pin the lazy greedy's placement, evaluation count and
//! hit ratio on three small deployments shaped like the benchmark's
//! workloads (paper footprint, LoRA market, Poisson district), and those
//! of Independent Caching and TrimCaching Spec on the first.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use trimcaching::modellib::builders::FoundationSpec;
use trimcaching::prelude::*;

/// The eager TrimCaching Gen greedy written against the pointwise
/// definition. At every selection step it evaluates every candidate
/// pair of every server both ways and requires identical bits, then
/// selects exactly as the solver does: the first strictly largest
/// positive gain among the unplaced pairs that fit, servers outer and
/// models inner.
fn reference_greedy(scenario: &Scenario, objective: &HitRatioObjective<'_>) -> Placement {
    let mut placement = scenario.empty_placement();
    let mut coverage = objective.empty_coverage();
    let mut trackers: Vec<StorageTracker<'_>> = (0..scenario.num_servers())
        .map(|m| scenario.storage_tracker(ServerId(m)).unwrap())
        .collect();
    let mut steps = 0;
    loop {
        let mut best: Option<(ServerId, ModelId, f64)> = None;
        for (m, tracker) in trackers.iter().enumerate() {
            let server = ServerId(m);
            for model in objective.candidate_models(server) {
                let pointwise = objective.marginal_hits(&placement, server, model);
                let gain = coverage.gain(server, model);
                assert_eq!(
                    gain.to_bits(),
                    pointwise.to_bits(),
                    "step {steps}: coverage gain {gain} != marginal_hits {pointwise} \
                     at ({m}, {})",
                    model.index()
                );
                if placement.contains(server, model) || !tracker.fits(model).unwrap() {
                    continue;
                }
                if pointwise > 0.0 && best.is_none_or(|(_, _, g)| pointwise > g) {
                    best = Some((server, model, pointwise));
                }
            }
        }
        let Some((server, model, _)) = best else {
            break;
        };
        placement.place(server, model).unwrap();
        coverage.cover(server, model);
        trackers[server.index()].add(model).unwrap();
        steps += 1;
    }
    assert_eq!(
        objective.expected_hits(&placement).to_bits(),
        pointwise_expected_hits(objective, &placement).to_bits(),
        "the coverage scores the placement differently from is_served"
    );
    placement
}

/// `Σ_{k,i} p_{k,i} · hit(k, i)` straight from `is_served`, in `(k, i)`
/// order.
fn pointwise_expected_hits(objective: &HitRatioObjective<'_>, placement: &Placement) -> f64 {
    let mut total = 0.0;
    for k in 0..objective.num_users() {
        for i in 0..objective.num_models() {
            if objective.is_served(placement, UserId(k), ModelId(i)) {
                total += objective.weight(UserId(k), ModelId(i));
            }
        }
    }
    total
}

/// A re-plan's demand: every user's weights with the model axis rotated
/// by `shift` and scaled to request counts, as an online estimate after
/// a popularity shift would look.
fn shifted_estimate(scenario: &Scenario, shift: usize) -> DemandEstimate {
    let demand = scenario.demand();
    let models = scenario.num_models();
    let weights = (0..scenario.num_users())
        .flat_map(|k| {
            (0..models)
                .map(move |i| 1_000.0 * demand.weight(UserId(k), ModelId((i + shift) % models)))
        })
        .collect();
    DemandEstimate::new(models, weights).unwrap()
}

/// Runs the reference greedy on `scenario` over its own eligibility, a
/// copy with server `down` masked out, ground truth and a shifted
/// estimate, and requires the lazy solver to land on the same placement
/// every time (and the eager solver on the unmasked ground truth).
fn check_solvers_against_reference(scenario: &Scenario, down: usize, shift: usize) {
    let lazy = TrimCachingGenLazy::new();
    let estimate = shifted_estimate(scenario, shift);
    let mut mask = vec![false; scenario.num_servers()];
    mask[down] = true;
    let own: &dyn EligibilityView = scenario.eligibility();
    let masked = MaskedEligibility::new(own, &mask);
    let demands: [&dyn DemandView; 2] = [scenario.demand(), &estimate];
    let views: [&dyn EligibilityView; 2] = [own, &masked];
    for (d, demand) in demands.into_iter().enumerate() {
        for (v, view) in views.into_iter().enumerate() {
            let objective = HitRatioObjective::from_views(demand, view).unwrap();
            let reference = reference_greedy(scenario, &objective);
            let solved = lazy.place_with_demand_on(scenario, demand, view).unwrap();
            assert_eq!(
                solved.placement, reference,
                "lazy greedy diverged from the reference (demand {d}, view {v})"
            );
            if v == 1 {
                assert!(reference.models_on(ServerId(down)).unwrap().is_empty());
            }
        }
    }
    let objective = scenario.objective();
    let reference = reference_greedy(scenario, &objective);
    assert_eq!(
        TrimCachingGen::new().place(scenario).unwrap().placement,
        reference
    );
}

/// A random snapshot with a mix of well-covered, random and uncovered
/// users, built with the requested representation.
fn small_scenario(
    seed: u64,
    special: bool,
    num_servers: usize,
    num_users: usize,
    capacity_gb: f64,
    repr: EligibilityRepr,
) -> Scenario {
    let library = if special {
        SpecialCaseBuilder::paper_setup()
            .models_per_backbone(3)
            .build(seed)
    } else {
        GeneralCaseBuilder::paper_setup()
            .classes_per_backbone(2)
            .build(seed)
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let area = DeploymentArea::paper_default();
    let servers: Vec<EdgeServer> = (0..num_servers)
        .map(|m| {
            EdgeServer::new(
                ServerId(m),
                area.sample_uniform(&mut rng),
                gigabytes(capacity_gb),
            )
            .unwrap()
        })
        .collect();
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
        .chain([Point::new(1.0e5, 1.0e5)])
        .collect();
    let demand = DemandConfig::paper_defaults()
        .generate(users.len(), library.num_models(), &mut rng)
        .unwrap();
    Scenario::builder()
        .library(library)
        .servers(servers)
        .users_at(&users)
        .demand(demand)
        .eligibility_repr(repr)
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every coverage gain equals `marginal_hits` at every selection
    /// step, on dense, sparse and one-server-down eligibility, under
    /// ground-truth and shifted demand; the solvers land on the
    /// reference placement. The user count (plus one uncovered user)
    /// ranges over one, two and three 64-bit words of a user bitset.
    #[test]
    fn coverage_gains_equal_marginal_hits_at_every_step(
        seed in 0u64..5000,
        special in any::<bool>(),
        num_servers in 2usize..6,
        num_users in 4usize..150,
        capacity_gb in 0.1f64..0.8,
        down in 0usize..6,
        shift in 1usize..5,
    ) {
        for repr in [EligibilityRepr::Dense, EligibilityRepr::Sparse] {
            let scenario =
                small_scenario(seed, special, num_servers, num_users, capacity_gb, repr);
            check_solvers_against_reference(&scenario, down % num_servers, shift);
        }
    }
}

/// The benchmark's drift-churn deployment (paper footprint, shared
/// popularity, 0.25 GB servers) with `users` users.
fn paper_footprint(users: usize) -> Scenario {
    let library = SpecialCaseBuilder::paper_setup()
        .models_per_backbone(10)
        .build(2024);
    let mut topology = TopologyConfig::paper_defaults()
        .with_users(users)
        .with_capacity_gb(0.25);
    topology.demand.personalised_popularity = false;
    topology.radio.activity_probability = 0.0067;
    topology.generate(&library, 2024, 0).unwrap()
}

/// A deployment generated with the paper's backhaul, rebuilt from its
/// parts on the sparse CSR.
fn sparse_copy(scenario: &Scenario) -> Scenario {
    Scenario::builder()
        .library(scenario.library().clone())
        .servers(scenario.servers().to_vec())
        .users(scenario.users().to_vec())
        .demand(scenario.demand().clone())
        .radio(*scenario.radio())
        .backhaul_rate_bps(TopologyConfig::paper_defaults().backhaul_rate_bps)
        .eligibility_repr(EligibilityRepr::Sparse)
        .build()
        .unwrap()
}

/// The oracle check at drift-churn size: 3 000 users, 30 models, 10
/// servers, once on the dense tensor the deployment selects and once on
/// the sparse CSR. Too slow for the debug test profile; CI runs it
/// under `--release`.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-profile smoke, run by CI")]
fn placement_oracle_smoke_drift_churn() {
    let dense = paper_footprint(3_000);
    assert!(!dense.eligibility().is_sparse());
    assert_eq!(dense.num_models(), 30);
    let sparse = sparse_copy(&dense);
    assert!(sparse.eligibility().is_sparse());
    assert_eq!(
        sparse.eligibility().num_eligible(),
        dense.eligibility().num_eligible()
    );
    for scenario in [&dense, &sparse] {
        check_solvers_against_reference(scenario, 3, 7);
    }
}

/// The benchmark's mobile-durable deployment (LoRA market of three
/// foundations with eight adapters each, 0.04 GB servers) with `users`
/// users.
fn lora_market(users: usize) -> Scenario {
    let foundations = (0..3)
        .map(|f| FoundationSpec::new(format!("edge-fm{f}"), 4, 8_000_000))
        .collect();
    let library = LoraLibraryBuilder::with_foundations(foundations)
        .adapters_per_foundation(8)
        .adapter_size_bytes(1_500_000)
        .head_size_bytes(500_000)
        .build(2024);
    let mut topology = TopologyConfig::paper_defaults()
        .with_users(users)
        .with_capacity_gb(0.04);
    topology.radio.activity_probability = 0.01;
    topology.generate(&library, 2024, 0).unwrap()
}

/// The benchmark's city-sharded deployment at district size.
fn district(users: usize) -> Scenario {
    let library = SpecialCaseBuilder::paper_setup()
        .models_per_backbone(3)
        .build(2024);
    CityScaleConfig::district()
        .with_users(users)
        .generate(&library, 2024, 0)
        .unwrap()
}

/// FNV-1a over the placed `(server, model)` pairs in placement order.
fn digest(placement: &Placement) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for (server, model) in placement.iter() {
        for value in [server.index() as u64, model.index() as u64] {
            for byte in value.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    hash
}

/// Requires the outcome's placement size and digest, evaluation count
/// and hit-ratio bits to equal the pinned values.
fn assert_pinned(name: &str, outcome: &PlacementOutcome, pin: (usize, u64, u64, u64)) {
    let got = (
        outcome.placement.len(),
        digest(&outcome.placement),
        outcome.evaluations,
        outcome.hit_ratio.to_bits(),
    );
    assert_eq!(
        got, pin,
        "{name}: (placed pairs, digest, evaluations, hit-ratio bits) moved"
    );
}

#[test]
fn lazy_greedy_is_pinned_on_a_300_user_paper_footprint() {
    let scenario = paper_footprint(300);
    let outcome = TrimCachingGenLazy::new().place(&scenario).unwrap();
    assert_pinned("paper footprint", &outcome, PIN_PAPER_FOOTPRINT);
}

/// The other two coverage callers, the eager greedy under full-size
/// accounting and Spec's successive per-server weights, on the same
/// deployment.
#[test]
fn independent_caching_and_spec_are_pinned_on_a_300_user_paper_footprint() {
    let scenario = paper_footprint(300);
    let independent = IndependentCaching::new().place(&scenario).unwrap();
    assert_pinned("independent", &independent, PIN_INDEPENDENT_PAPER_FOOTPRINT);
    let spec = TrimCachingSpec::new().place(&scenario).unwrap();
    assert_pinned("spec", &spec, PIN_SPEC_PAPER_FOOTPRINT);
}

#[test]
fn lazy_greedy_is_pinned_on_a_500_user_lora_market() {
    let scenario = lora_market(500);
    let outcome = TrimCachingGenLazy::new().place(&scenario).unwrap();
    assert_pinned("LoRA market", &outcome, PIN_LORA_MARKET);
}

#[test]
fn lazy_greedy_is_pinned_on_a_district() {
    let scenario = district(2_000);
    assert!(scenario.eligibility().is_sparse());
    let outcome = TrimCachingGenLazy::new().place(&scenario).unwrap();
    assert_pinned("district", &outcome, PIN_DISTRICT);
}

// The pinned `(placed pairs, digest, evaluations, hit-ratio bits)` of
// each deployment, captured from the solver that still scored gains
// pointwise through `marginal_hits`.
const PIN_PAPER_FOOTPRINT: (usize, u64, u64, u64) =
    (51, 0x8aba_d4b9_cbbc_13b8, 2310, 0x3fe3_60a5_8c40_9793);
const PIN_LORA_MARKET: (usize, u64, u64, u64) =
    (24, 0x19ff_4dfb_2e20_8d26, 501, 0x3fe6_5604_1893_7485);
const PIN_DISTRICT: (usize, u64, u64, u64) =
    (1180, 0xec5e_dd0b_4b64_9b3f, 4997, 0x3fe8_c8b4_3958_0ff8);
const PIN_INDEPENDENT_PAPER_FOOTPRINT: (usize, u64, u64, u64) =
    (33, 0x057a_7e6e_ffaf_8def, 6223, 0x3fe1_91d2_35a8_1722);
const PIN_SPEC_PAPER_FOOTPRINT: (usize, u64, u64, u64) =
    (70, 0x80d1_d780_d669_d6b9, 13_153_587, 0x3fe4_2998_897e_296a);

//! Property-based equivalence of the in-place mobility update and the
//! full snapshot rebuild: random position vectors applied in place
//! through `Scenario::update_user_positions` must produce a snapshot
//! **bit-identical** to `with_user_positions` — same coverage,
//! allocation, rates, eligibility (dense and sparse) and hit ratios —
//! after every slot of a random trajectory, and every set of the
//! returned delta must equal its naive definition. Every slot's
//! eligibility is also checked triple by triple against the pointwise
//! definition `LatencyEvaluator::eligible`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use trimcaching::modellib::builders::{FoundationSpec, SpecialCaseBuilder};
use trimcaching::modellib::ModelId;
use trimcaching::prelude::*;
use trimcaching::scenario::{LatencyEvaluator, SnapshotDelta};
use trimcaching::wireless::allocation::PerUserAllocation;
use trimcaching::wireless::geometry::{DeploymentArea, Point};

/// A user parked far outside every server's coverage (until a move
/// clamps it into the deployment area).
const UNCOVERED: Point = Point { x: 1.0e5, y: 1.0e5 };

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
    let mut eligible = 0;
    for m in 0..scenario.num_servers() {
        for k in 0..scenario.num_users() {
            for i in 0..scenario.num_models() {
                let expected = oracle.eligible(m, UserId(k), ModelId(i)).unwrap();
                eligible += usize::from(expected);
                assert_eq!(
                    view.eligible(m, UserId(k), ModelId(i)),
                    expected,
                    "{:?} disagrees with the oracle at ({m}, {k}, {i})",
                    view.repr()
                );
            }
        }
    }
    assert_eq!(view.num_eligible(), eligible);
}

/// Deterministically builds one random snapshot with the given forced
/// eligibility representation.
fn build_scenario(
    seed: u64,
    num_servers: usize,
    num_users: usize,
    repr: EligibilityRepr,
) -> Scenario {
    let library = SpecialCaseBuilder::paper_setup()
        .models_per_backbone(3)
        .build(seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let area = DeploymentArea::paper_default();
    let servers: Vec<EdgeServer> = (0..num_servers)
        .map(|m| {
            EdgeServer::new(ServerId(m), area.sample_uniform(&mut rng), gigabytes(0.6)).unwrap()
        })
        .collect();
    // A mix of anchored (covered), random (sometimes uncovered) and one
    // parked out-of-range user keeps boundary crossings, uncovered rows
    // and multi-coverage all exercised as they move.
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
    Scenario::builder()
        .library(library)
        .servers(servers)
        .users_at(&users)
        .demand(demand)
        .eligibility_repr(repr)
        .build()
        .unwrap()
}

/// Draws the next positions: a random subset of users jumps by a random
/// step (from a small nudge within a cell to a leap across the whole
/// area), everyone else stays where they are.
fn random_positions(scenario: &Scenario, area: &DeploymentArea, rng: &mut StdRng) -> Vec<Point> {
    let mut positions: Vec<Point> = scenario.users().iter().map(|u| u.position()).collect();
    let movers = rng.gen_range(1..=positions.len());
    for _ in 0..movers {
        let k = rng.gen_range(0..positions.len());
        let step: f64 = rng.gen_range(1.0..600.0);
        let angle: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
        positions[k] = area.clamp(positions[k].translated(step * angle.cos(), step * angle.sin()));
    }
    positions
}

/// Requires every set of `delta` to equal its definition, computed
/// naively from the snapshots `before` and `after` the batch:
///
/// * moved users — users whose position differs, ascending;
/// * reallocated servers — servers whose per-user share differs;
/// * refreshed users — moved users plus every user a reallocated
///   server covers after the batch, ascending.
fn assert_delta_is_naive(before: &Scenario, after: &Scenario, delta: &SnapshotDelta) {
    let moved: Vec<usize> = (0..before.num_users())
        .filter(|&k| before.users()[k].position() != after.users()[k].position())
        .collect();
    assert_eq!(delta.moved_users(), moved.as_slice(), "moved users");
    let share = |s: &Scenario| PerUserAllocation::compute(s.coverage(), s.radio()).unwrap();
    let (old_share, new_share) = (share(before), share(after));
    let reallocated: Vec<usize> = (0..before.num_servers())
        .filter(|&m| old_share.share(m).unwrap() != new_share.share(m).unwrap())
        .collect();
    assert_eq!(
        delta.reallocated_servers(),
        reallocated.as_slice(),
        "reallocated servers"
    );
    let refreshed: Vec<usize> = (0..before.num_users())
        .filter(|&k| {
            moved.contains(&k)
                || reallocated
                    .iter()
                    .any(|&m| after.coverage().users_of_server(m).unwrap().contains(&k))
        })
        .collect();
    assert_eq!(
        delta.refreshed_users(),
        refreshed.as_slice(),
        "refreshed users"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// In-place position updates produce snapshots bit-identical to
    /// full rebuilds, for both eligibility representations, slot after
    /// slot, and every slot's eligibility equals the pointwise
    /// definition, as does the radio-only update's derived eligibility.
    /// Every delta set must equal its naive definition, and the
    /// radio-only update must report the same delta.
    #[test]
    fn incremental_moves_match_full_rebuild(
        seed in 0u64..5000,
        num_servers in 2usize..5,
        num_users in 4usize..12,
        slots in 1usize..5,
    ) {
        let area = DeploymentArea::paper_default();
        for repr in [EligibilityRepr::Dense, EligibilityRepr::Sparse] {
            let base = build_scenario(seed, num_servers, num_users, repr);
            assert_matches_oracle(&base);
            let mut incremental = base.clone();
            let mut move_rng = StdRng::seed_from_u64(seed ^ 0x0B11);
            let mut placement_rng = StdRng::seed_from_u64(seed ^ 0x51A7);
            for _ in 0..slots {
                let positions = random_positions(&incremental, &area, &mut move_rng);
                let before = incremental.clone();
                let delta = incremental.update_user_positions(&positions).unwrap();
                assert_delta_is_naive(&before, &incremental, &delta);
                // Full rebuild from the evolved positions.
                let rebuilt = base.with_user_positions(&positions).unwrap();
                prop_assert_eq!(&incremental, &rebuilt);
                assert_matches_oracle(&incremental);
                // The radio-only update leaves the eligibility to the
                // caller; deriving it afterwards gives the rebuild's.
                let mut radio_only = before.clone();
                prop_assert_eq!(&radio_only.update_radio_positions(&positions).unwrap(), &delta);
                prop_assert_eq!(radio_only.coverage(), rebuilt.coverage());
                prop_assert_eq!(radio_only.rates(), rebuilt.rates());
                prop_assert_eq!(&radio_only.derive_eligibility().unwrap(), rebuilt.eligibility());
                // Hit ratios are bit-identical for random placements.
                let mut placement = incremental.empty_placement();
                for _ in 0..6 {
                    let m = ServerId(placement_rng.gen_range(0..num_servers));
                    let i = ModelId(placement_rng.gen_range(0..incremental.num_models()));
                    placement.place(m, i).unwrap();
                    prop_assert_eq!(
                        incremental.hit_ratio(&placement).to_bits(),
                        rebuilt.hit_ratio(&placement).to_bits()
                    );
                }
            }
        }
    }

    /// The full-position entry point diffs internally: feeding back the
    /// current positions is a no-op, and moving half the users reports
    /// exactly those users as moved and yields the rebuild.
    #[test]
    fn update_user_positions_diffs_internally(
        seed in 0u64..5000,
        num_servers in 2usize..4,
        num_users in 4usize..10,
    ) {
        for repr in [EligibilityRepr::Dense, EligibilityRepr::Sparse] {
            let base = build_scenario(seed, num_servers, num_users, repr);
            let mut scenario = base.clone();
            let current: Vec<Point> = scenario.users().iter().map(|u| u.position()).collect();
            let delta = scenario.update_user_positions(&current).unwrap();
            prop_assert!(delta.is_empty());
            prop_assert_eq!(&scenario, &base);
            prop_assert!(scenario.update_radio_positions(&current).unwrap().is_empty());
            prop_assert_eq!(&scenario, &base);
            // Move the even users to fresh random points.
            let area = DeploymentArea::paper_default();
            let mut rng = StdRng::seed_from_u64(seed ^ 0xD1FF);
            let mut positions = current.clone();
            for p in positions.iter_mut().step_by(2) {
                *p = area.sample_uniform(&mut rng);
            }
            let expected: Vec<usize> =
                (0..positions.len()).filter(|&k| positions[k] != current[k]).collect();
            let delta = scenario.update_user_positions(&positions).unwrap();
            prop_assert_eq!(delta.moved_users(), expected.as_slice());
            prop_assert!(delta.moved_users().iter().all(|k| k % 2 == 0));
            prop_assert_eq!(&scenario, &base.with_user_positions(&positions).unwrap());
        }
    }
}

/// The `serve_scaling` LoRA market: three foundations with eight small
/// adapters each.
fn lora_library() -> ModelLibrary {
    let foundations = (0..3)
        .map(|f| FoundationSpec::new(format!("edge-fm{f}"), 4, 8_000_000))
        .collect();
    LoraLibraryBuilder::with_foundations(foundations)
        .adapters_per_foundation(8)
        .adapter_size_bytes(1_500_000)
        .head_size_bytes(500_000)
        .build(2024)
}

/// The same snapshot with its eligibility derived in `repr`.
fn with_repr(scenario: &Scenario, repr: EligibilityRepr) -> Scenario {
    Scenario::builder()
        .library(scenario.library().clone())
        .servers(scenario.servers().to_vec())
        .users(scenario.users().to_vec())
        .demand(scenario.demand().clone())
        .radio(*scenario.radio())
        .backhaul_rate_bps(scenario.backhaul().default_rate_bps())
        .eligibility_repr(repr)
        .build()
        .unwrap()
}

/// The engine's mobility regime, pinned to the pointwise definition: 20
/// `paper_mix` slots (most users move every slot, and share
/// reallocation refreshes nearly every row) over a 500-user LoRA
/// market, replayed once with the dense tensor and once with the sparse
/// CSR. After the build and after every slot, every triple must equal
/// `LatencyEvaluator::eligible`, and the snapshot must equal a full
/// rebuild.
#[test]
fn eligibility_oracle_smoke_paper_mix() {
    let mut topology = TopologyConfig::paper_defaults()
        .with_users(500)
        .with_capacity_gb(0.04);
    topology.radio.activity_probability = 0.01;
    let generated = topology.generate(&lora_library(), 2024, 0).unwrap();
    let area = DeploymentArea::new(topology.area_side_m).unwrap();
    for repr in [EligibilityRepr::Dense, EligibilityRepr::Sparse] {
        let base = with_repr(&generated, repr);
        assert_eq!(base.eligibility_repr(), repr);
        assert_matches_oracle(&base);
        let mut current = base.clone();
        let initial: Vec<Point> = current.users().iter().map(|u| u.position()).collect();
        let mut rng = StdRng::seed_from_u64(0x51_07);
        let mut model = MobilityModel::paper_mix(&initial, area, &mut rng);
        let mut refreshed = 0;
        for _ in 0..20 {
            model.step(&mut rng);
            let positions = model.positions();
            let delta = current.update_user_positions(&positions).unwrap();
            refreshed += delta.refreshed_users().len();
            assert_matches_oracle(&current);
            assert_eq!(current, base.with_user_positions(&positions).unwrap());
        }
        // The regime is the one the engine runs: most rows refresh.
        assert!(
            refreshed > 20 * 500 / 2,
            "{repr:?}: only {refreshed} rows refreshed over 20 slots"
        );
    }
}

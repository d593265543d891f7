//! Per-slot mobility radio update: `Scenario::update_radio_positions`,
//! which moves every user and recomputes coverage, per-user shares and
//! expected rates whole, through the same passes as the snapshot build
//! and in the snapshot's own buffers. The eligibility indicator is not
//! part of it: the serving engine's merge leaves it to a re-plan
//! (`Scenario::derive_eligibility`).
//!
//! Two regimes:
//!
//! * for `M ∈ {100, 500, 1000}` Poisson-deployed servers on sparse
//!   eligibility (the largest is the 1 000-server / 50 000-user city
//!   preset; in all three the coverage pass runs through the spatial
//!   server grid) a 1% / 5% fraction of the users takes one
//!   mobility-sized step;
//! * the regime the serving engine actually runs: the dense 5 000-user
//!   LoRA market (10 servers, 24 models) advanced by one `paper_mix`
//!   slot, which moves ~86% of the users and, through share
//!   reallocation, refreshes nearly every row.
//!
//! Before any timing starts, every district's coverage rows, both
//! directions, are asserted equal to the all-pairs definition
//! `distance ≤ radius` (above 64 servers, so in every district, they
//! are built through the spatial server grid, which the rebuild
//! comparison below goes through on both sides; at the city that is
//! 50 000 × 997 distance tests).
//! Then `update_user_positions` (the radio update plus the eligibility
//! re-derivation) is asserted to produce a snapshot bit-identical to a
//! full `with_user_positions` rebuild, with bit-identical hit ratios;
//! the LoRA row's eligibility is also checked triple by triple against
//! `LatencyEvaluator::eligible`.
//!
//! The update is timed by flip-flopping one snapshot between the two
//! position sets, so every sample performs exactly one slot update of
//! the same size (the untimed warm-up is the first flip). Nothing is
//! asserted about the times, so the bench is a deterministic
//! equivalence check plus a printed cost per slot.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use trimcaching_bench::measure;
use trimcaching_modellib::builders::{FoundationSpec, LoraLibraryBuilder, SpecialCaseBuilder};
use trimcaching_modellib::{ModelId, ModelLibrary};
use trimcaching_placement::{PlacementAlgorithm, TopPopularity};
use trimcaching_scenario::mobility::{MobilityClass, MobilityModel};
use trimcaching_scenario::{EligibilityRepr, LatencyEvaluator, Scenario, SnapshotDelta, UserId};
use trimcaching_sim::{CityScaleConfig, TopologyConfig};
use trimcaching_wireless::{DeploymentArea, Point};

fn library() -> ModelLibrary {
    SpecialCaseBuilder::paper_setup()
        .models_per_backbone(3)
        .build(2024)
}

/// A Poisson district sized for roughly `target_servers` servers with a
/// fixed ~25 users per server (the `sparse_eligibility` scaling ladder),
/// or the full 1 000-server / 50 000-user city preset.
fn district(target_servers: usize) -> Scenario {
    if target_servers >= 1000 {
        return CityScaleConfig::city()
            .generate(&library(), 2024, 0)
            .expect("city generates");
    }
    let lambda = 8.0;
    let area_km2 = target_servers as f64 / lambda;
    let mut config = CityScaleConfig::district()
        .with_users(target_servers * 25)
        .with_repr(EligibilityRepr::Sparse);
    config.area_side_m = (area_km2.sqrt() * 1_000.0).max(500.0);
    config.capacity_gb = 0.4;
    config
        .generate(&library(), 2024, 0)
        .expect("district generates")
}

/// The `serve_scaling` LoRA market with 5 000 users on the paper's
/// 10-server footprint (the perfbench `mobile-durable` deployment):
/// coverage density ~0.18, above `Auto`'s sparse threshold, on 1.2M
/// cells, so `Auto` resolves to the dense tensor.
fn lora_market() -> Scenario {
    let foundations = (0..3)
        .map(|f| FoundationSpec::new(format!("edge-fm{f}"), 4, 8_000_000))
        .collect();
    let library = LoraLibraryBuilder::with_foundations(foundations)
        .adapters_per_foundation(8)
        .adapter_size_bytes(1_500_000)
        .head_size_bytes(500_000)
        .build(2024);
    let mut topology = TopologyConfig::paper_defaults()
        .with_users(5_000)
        .with_capacity_gb(0.04);
    topology.radio.activity_probability = 0.01;
    topology
        .generate(&library, 2024, 0)
        .expect("LoRA market generates")
}

/// Positions after one `paper_mix` slot of the whole population.
fn paper_mix_slot(scenario: &Scenario, seed: u64) -> Vec<Point> {
    let area = DeploymentArea::new(TopologyConfig::paper_defaults().area_side_m).expect("area");
    let positions: Vec<Point> = scenario.users().iter().map(|u| u.position()).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = MobilityModel::paper_mix(&positions, area, &mut rng);
    model.step(&mut rng);
    model.positions()
}

/// Asserts that every triple of the snapshot's eligibility equals the
/// pointwise definition `LatencyEvaluator::eligible`.
fn assert_matches_oracle(scenario: &Scenario) {
    let oracle = LatencyEvaluator::new(
        scenario.library(),
        scenario.demand(),
        scenario.coverage(),
        scenario.backhaul(),
        scenario.rates(),
    )
    .expect("evaluator");
    let view = scenario.eligibility();
    for m in 0..scenario.num_servers() {
        for k in 0..scenario.num_users() {
            for i in 0..scenario.num_models() {
                assert_eq!(
                    view.eligible(m, UserId(k), ModelId(i)),
                    oracle.eligible(m, UserId(k), ModelId(i)).expect("in range"),
                    "eligibility disagrees with the oracle at ({m}, {k}, {i})"
                );
            }
        }
    }
}

/// Asserts that every coverage row of `scenario`, both directions,
/// equals the all-pairs definition `distance ≤ radius`.
fn assert_coverage_matches_definition(scenario: &Scenario) {
    let coverage = scenario.coverage();
    let radius_m = coverage.coverage_radius_m();
    let servers: Vec<Point> = scenario.servers().iter().map(|s| s.position()).collect();
    let mut members = vec![Vec::new(); servers.len()];
    let mut row = Vec::new();
    for (k, user) in scenario.users().iter().enumerate() {
        row.clear();
        for (m, server) in servers.iter().enumerate() {
            if server.distance(user.position()) <= radius_m {
                row.push(m);
                members[m].push(k);
            }
        }
        assert_eq!(
            coverage.servers_of_user(k).expect("user in range"),
            row,
            "covering servers of user {k}"
        );
    }
    for (m, expected) in members.iter().enumerate() {
        assert_eq!(
            coverage.users_of_server(m).expect("server in range"),
            expected.as_slice(),
            "users of server {m}"
        );
    }
}

/// Positions after moving `fraction` of the users by one 5-second slot
/// at the speed of their paper mobility class (users are assigned to
/// pedestrian/bike/vehicle round robin, exactly as
/// `MobilityModel::paper_mix` does), clamped to the deployment square
/// implied by the scenario's servers.
fn moved_positions(scenario: &Scenario, fraction: f64, seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    let side = scenario
        .servers()
        .iter()
        .map(|s| s.position().x.max(s.position().y))
        .fold(0.0f64, f64::max)
        .max(1_000.0);
    let classes = MobilityClass::all();
    let mut positions: Vec<Point> = scenario.users().iter().map(|u| u.position()).collect();
    let movers = ((positions.len() as f64) * fraction).round().max(1.0) as usize;
    for _ in 0..movers {
        let k = rng.gen_range(0..positions.len());
        let (lo, hi) = classes[k % classes.len()].initial_speed_range();
        let step: f64 = rng.gen_range(lo..=hi) * 5.0;
        let angle: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
        let p = positions[k];
        positions[k] = Point::new(
            (p.x + step * angle.cos()).clamp(0.0, side),
            (p.y + step * angle.sin()).clamp(0.0, side),
        );
    }
    positions
}

/// Equivalence gate for one regime: the in-place update at `moved` must
/// equal a full rebuild, snapshot and hit ratio alike. Returns the
/// updated snapshot and the update's delta.
fn assert_update_matches_rebuild(
    scenario: &Scenario,
    moved: &[Point],
) -> (Scenario, SnapshotDelta) {
    let rebuilt = scenario.with_user_positions(moved).expect("rebuild");
    let mut updated = scenario.clone();
    let delta = updated.update_user_positions(moved).expect("update");
    assert_eq!(updated, rebuilt, "update must equal full rebuild");
    let placement = TopPopularity::new()
        .place(scenario)
        .expect("placement")
        .placement;
    assert_eq!(
        updated.hit_ratio(&placement).to_bits(),
        rebuilt.hit_ratio(&placement).to_bits()
    );
    (updated, delta)
}

/// Prints one regime's size, then times `samples` radio updates,
/// flip-flopping one snapshot between the original positions and
/// `moved`.
fn report_slot(
    label: &str,
    scenario: &Scenario,
    moved: &[Point],
    delta: &SnapshotDelta,
    samples: usize,
) {
    let original: Vec<Point> = scenario.users().iter().map(|u| u.position()).collect();
    let (m, k) = (scenario.num_servers(), scenario.num_users());
    eprintln!(
        "[mobility_slot] {label}: M = {m}, K = {k}, {} users moved, {} refreshed",
        delta.moved_users().len(),
        delta.refreshed_users().len(),
    );
    let mut flip = scenario.clone();
    let mut toggle = false;
    measure(&format!("mobility_slot/{label}/{m}"), samples, || {
        toggle = !toggle;
        let target = if toggle { moved } else { &original };
        flip.update_radio_positions(target).expect("update applies")
    });
}

fn main() {
    for target in [100usize, 500, 1000] {
        let scenario = district(target);
        assert_coverage_matches_definition(&scenario);
        for fraction in [0.01f64, 0.05] {
            let moved = moved_positions(&scenario, fraction, 7 + target as u64);
            let (_, delta) = assert_update_matches_rebuild(&scenario, &moved);
            let samples = if scenario.num_servers() >= 500 { 8 } else { 16 };
            let label = format!("slot/{}pct", (fraction * 100.0) as usize);
            report_slot(&label, &scenario, &moved, &delta, samples);
        }
    }

    // The engine's regime: dense LoRA market, one paper_mix slot.
    let scenario = lora_market();
    assert!(
        !scenario.eligibility().is_sparse(),
        "the LoRA market is dense"
    );
    let moved = paper_mix_slot(&scenario, 2024);
    let (updated, delta) = assert_update_matches_rebuild(&scenario, &moved);
    assert_matches_oracle(&updated);
    report_slot("slot/paper_mix", &scenario, &moved, &delta, 16);
}

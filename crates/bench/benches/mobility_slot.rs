//! Per-slot mobility radio refresh: a from-scratch radio build
//! (`CoverageMap::build`, `PerUserAllocation::compute`,
//! `RateMatrix::expected`) vs. the incremental `update_radio_positions`
//! delta path. The eligibility indicator is not part of either: the
//! delta path leaves it to be re-derived whole
//! (`Scenario::derive_eligibility`), which costs the same either way.
//!
//! Two regimes:
//!
//! * for `M ∈ {100, 500, 1000}` Poisson-deployed servers on sparse
//!   eligibility (the largest is the 1 000-server / 50 000-user city
//!   preset) a 1% / 5% fraction of the users takes one mobility-sized
//!   step;
//! * the regime the serving engine actually runs: the dense 5 000-user
//!   LoRA market (10 servers, 24 models) advanced by one `paper_mix`
//!   slot, which moves ~86% of the users and, through share
//!   reallocation, refreshes nearly every row.
//!
//! The time to bring the radio state up to date is measured both ways.
//! Before any timing starts, `update_user_positions` (the radio update
//! plus the eligibility re-derivation) is asserted to produce a snapshot
//! bit-identical to a full `with_user_positions` rebuild (and equal hit
//! ratios), and the from-scratch radio build to produce the same
//! coverage and rates; the LoRA row's eligibility is also checked
//! triple by triple against `LatencyEvaluator::eligible`.
//!
//! The incremental path is timed by flip-flopping one snapshot between
//! the two position sets, so every iteration performs exactly one slot
//! update of the same size; the full path rebuilds the radio state from
//! scratch each iteration. The acceptance criterion for the city scale
//! — the radio delta at a ≤ 5% moved fraction at least 10× faster than
//! the from-scratch radio build — is asserted at the end.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use trimcaching_modellib::builders::{FoundationSpec, LoraLibraryBuilder, SpecialCaseBuilder};
use trimcaching_modellib::{ModelId, ModelLibrary};
use trimcaching_placement::{PlacementAlgorithm, TopPopularity};
use trimcaching_scenario::mobility::{MobilityClass, MobilityModel};
use trimcaching_scenario::{EligibilityRepr, LatencyEvaluator, RateMatrix, Scenario, UserId};
use trimcaching_sim::{CityScaleConfig, TopologyConfig};
use trimcaching_wireless::allocation::PerUserAllocation;
use trimcaching_wireless::coverage::CoverageMap;
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
/// coverage density ~0.7, so `Auto` resolves to the dense tensor.
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

/// The scenario's radio state for users at `positions`, built from
/// scratch the way `ScenarioBuilder::build` does: coverage, per-user
/// allocation, expected rates.
fn radio_build(scenario: &Scenario, positions: &[Point]) -> (CoverageMap, RateMatrix) {
    let servers: Vec<Point> = scenario.servers().iter().map(|s| s.position()).collect();
    let radio = scenario.radio();
    let coverage =
        CoverageMap::build(positions, &servers, radio.coverage_radius_m).expect("coverage");
    let allocation = PerUserAllocation::compute(&coverage, radio).expect("allocation");
    let rates = RateMatrix::expected(&coverage, &allocation, radio).expect("rates");
    (coverage, rates)
}

/// Minimum per-iteration wall-clock of `runs` incremental radio updates
/// flip-flopping one snapshot between position sets `a` and `b` (one
/// update per iteration, first flip used as warm-up). The minimum is
/// the noise-robust statistic: scheduler interference only ever adds
/// time, so the smallest observation is the closest to the true cost.
fn time_delta(scenario: &Scenario, a: &[Point], b: &[Point], runs: usize) -> f64 {
    let mut current = scenario.clone();
    current.update_radio_positions(b).expect("delta applies");
    let mut best = f64::INFINITY;
    for run in 0..runs {
        let target = if run % 2 == 0 { a } else { b };
        let start = Instant::now();
        current
            .update_radio_positions(target)
            .expect("delta applies");
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Minimum per-iteration wall-clock of `runs` from-scratch radio builds
/// at the moved positions (plus one untimed warm-up; see [`time_delta`]
/// for why the minimum).
fn time_full(scenario: &Scenario, b: &[Point], runs: usize) -> f64 {
    criterion::black_box(radio_build(scenario, b));
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let start = Instant::now();
        criterion::black_box(radio_build(scenario, b));
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Asserts that the from-scratch radio build at `positions` equals the
/// incrementally updated snapshot's radio state.
fn assert_radio_matches(scenario: &Scenario, positions: &[Point], updated: &Scenario) {
    let (coverage, rates) = radio_build(scenario, positions);
    assert_eq!(&coverage, updated.coverage(), "radio build coverage");
    assert_eq!(&rates, updated.rates(), "radio build rates");
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("mobility_slot");
    group.sample_size(10);

    let mut city_speedup_at_5pct = f64::INFINITY;
    for target in [100usize, 500, 1000] {
        let scenario = district(target);
        let m = scenario.num_servers();
        let k = scenario.num_users();
        let original: Vec<Point> = scenario.users().iter().map(|u| u.position()).collect();

        for fraction in [0.01f64, 0.05] {
            let moved = moved_positions(&scenario, fraction, 7 + target as u64);

            // Equivalence gate: the delta path must be bit-identical to
            // the full rebuild — snapshot and hit ratio alike — and the
            // timed baseline must build the same radio state.
            let rebuilt = scenario.with_user_positions(&moved).expect("rebuild");
            let mut incremental = scenario.clone();
            let delta = incremental.update_user_positions(&moved).expect("delta");
            assert_eq!(incremental, rebuilt, "delta must equal full rebuild");
            assert_radio_matches(&scenario, &moved, &incremental);
            let placement = TopPopularity::new()
                .place(&scenario)
                .expect("placement")
                .placement;
            assert_eq!(
                incremental.hit_ratio(&placement).to_bits(),
                rebuilt.hit_ratio(&placement).to_bits()
            );

            let runs = if m >= 500 { 8 } else { 16 };
            let full_s = time_full(&scenario, &moved, runs.min(5));
            let delta_s = time_delta(&scenario, &original, &moved, runs);
            let speedup = full_s / delta_s;
            eprintln!(
                "[mobility_slot] M = {m}, K = {k}, moved {:.0}% ({} users, \
                 {} refreshed): radio build {:.2?} vs radio delta {:.2?} ({speedup:.1}x)",
                fraction * 100.0,
                delta.moved_users().len(),
                delta.refreshed_users().len(),
                std::time::Duration::from_secs_f64(full_s),
                std::time::Duration::from_secs_f64(delta_s),
            );
            if target >= 1000 && fraction >= 0.05 {
                city_speedup_at_5pct = speedup;
            }

            let pct = (fraction * 100.0) as usize;
            group.bench_with_input(
                BenchmarkId::new(format!("full/{pct}pct"), m),
                &scenario,
                |b, s| b.iter(|| radio_build(s, &moved)),
            );
            let mut flip = scenario.clone();
            let mut toggle = false;
            group.bench_with_input(
                BenchmarkId::new(format!("delta/{pct}pct"), m),
                &scenario,
                |b, _| {
                    b.iter(|| {
                        let target = if toggle { &original } else { &moved };
                        toggle = !toggle;
                        flip.update_radio_positions(target).expect("delta applies")
                    })
                },
            );
        }
    }

    // The engine's regime: dense LoRA market, one paper_mix slot.
    let scenario = lora_market();
    assert!(
        !scenario.eligibility().is_sparse(),
        "the LoRA market is dense"
    );
    let (m, k) = (scenario.num_servers(), scenario.num_users());
    let original: Vec<Point> = scenario.users().iter().map(|u| u.position()).collect();
    let moved = paper_mix_slot(&scenario, 2024);
    let rebuilt = scenario.with_user_positions(&moved).expect("rebuild");
    let mut incremental = scenario.clone();
    let delta = incremental.update_user_positions(&moved).expect("delta");
    assert_eq!(incremental, rebuilt, "delta must equal full rebuild");
    assert_radio_matches(&scenario, &moved, &incremental);
    assert_matches_oracle(&incremental);
    let full_s = time_full(&scenario, &moved, 5);
    let delta_s = time_delta(&scenario, &original, &moved, 16);
    eprintln!(
        "[mobility_slot] LoRA market M = {m}, K = {k}, dense, one paper_mix slot \
         ({} users moved, {} refreshed): radio build {:.2?} vs radio delta {:.2?} ({:.1}x)",
        delta.moved_users().len(),
        delta.refreshed_users().len(),
        std::time::Duration::from_secs_f64(full_s),
        std::time::Duration::from_secs_f64(delta_s),
        full_s / delta_s,
    );
    group.bench_with_input(BenchmarkId::new("full/paper_mix", m), &scenario, |b, s| {
        b.iter(|| radio_build(s, &moved))
    });
    let mut flip = scenario.clone();
    let mut toggle = false;
    group.bench_with_input(BenchmarkId::new("delta/paper_mix", m), &scenario, |b, _| {
        b.iter(|| {
            let target = if toggle { &original } else { &moved };
            toggle = !toggle;
            flip.update_radio_positions(target).expect("delta applies")
        })
    });
    group.finish();

    // Acceptance: at the city scale (1000 servers / 50k users) a ≤ 5%
    // moved fraction must update the radio state at least 10x faster
    // than building it from scratch.
    assert!(
        city_speedup_at_5pct >= 10.0,
        "city-scale radio delta speedup {city_speedup_at_5pct:.1}x is below the 10x acceptance bar"
    );
    eprintln!(
        "[mobility_slot] city acceptance: radio delta at 5% moved is \
         {city_speedup_at_5pct:.1}x faster than the radio build (>= 10x required)"
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);

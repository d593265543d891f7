//! Integration tests of the online re-placement controller
//! (`runtime::control`): determinism of controller-enabled runs, and
//! the adaptation acceptance bar — under a seeded mid-run popularity
//! shift at city scale, the controller's post-shift steady-state hit
//! ratio beats the static baseline and stays within five points of an
//! oracle replan, with every reconfiguration byte accounted on the
//! backhaul links. Under user mobility (the `serve-adapt-mobility`
//! study), the controller never trails the static placement on average
//! and a tighter drift trigger never re-plans less.

use std::sync::OnceLock;

use trimcaching::modellib::builders::SpecialCaseBuilder;
use trimcaching::prelude::*;
use trimcaching::runtime::{PopularityEdit, ServeMetrics, Workload};
// The controller tuning and steady-state accounting are shared with the
// recorded `serve-adapt` experiment — the acceptance asserts run against
// exactly the configuration EXPERIMENTS.md reports.
use trimcaching::sim::experiments::adapt::{self, hit_ratio_after, study_control_config};
use trimcaching::sim::experiments::RunConfig;

/// A compact city: Poisson-deployed servers on the coverage-pruned
/// sparse eligibility representation (the PR 2 machinery), a shared
/// global popularity ranking so a flip moves the whole population's
/// demand coherently, and capacity tight enough that placement matters.
fn city_scenario() -> Scenario {
    let library = SpecialCaseBuilder::paper_setup()
        .models_per_backbone(10)
        .build(2024);
    let mut city = CityScaleConfig::district().with_users(500);
    city.area_side_m = 2_000.0;
    city.servers_per_km2 = 8.0;
    city.capacity_gb = 0.25;
    city.demand.personalised_popularity = false;
    let scenario = city.generate(&library, 2024, 0).expect("city generates");
    assert!(scenario.eligibility().is_sparse(), "city scale runs sparse");
    scenario
}

/// The flip study timings: shift at 500 s, steady state over the last
/// 500 s (detection + staged reconciliation get the middle 500 s).
const DURATION_S: f64 = 1500.0;
const SHIFT_S: f64 = 500.0;
const STEADY_FROM_S: f64 = 1000.0;
const RATE_HZ: f64 = 0.2;

fn flip_workload(scenario: &Scenario) -> (Workload, Demand) {
    let base = scenario.demand();
    let (models, shift) = (scenario.num_models(), scenario.num_models() / 2);
    let flipped = rotate_popularity(base, shift).expect("rotation is valid");
    let segments = [
        (0.0, PopularityEdit::Keep),
        (SHIFT_S, PopularityEdit::rotation(models, shift)),
    ];
    let workload = Workload::piecewise(base, &segments, RATE_HZ).expect("piecewise");
    (workload, flipped)
}

fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig::paper_defaults()
        .with_duration_s(DURATION_S)
        .with_request_rate_hz(RATE_HZ)
        .with_seed(seed)
}

#[test]
fn controller_runs_are_byte_identical_per_seed() {
    let scenario = city_scenario();
    let (workload, _) = flip_workload(&scenario);
    let config = serve_config(7).with_control(study_control_config());
    let run = |config: &ServeConfig| {
        let mut engine =
            ServeEngine::new(&scenario, &CostAwareLfu, config.clone()).expect("engine builds");
        engine
            .set_workload(workload.clone())
            .expect("workload fits");
        engine.run().expect("controller run")
    };
    let a = run(&config);
    let b = run(&config);
    assert_eq!(a, b, "same-seed controller runs must be byte-identical");
    assert_eq!(a.metrics.windows(), b.metrics.windows());
    assert!(a.metrics.control_ticks > 0);
    let c = run(&config.with_seed(8));
    assert_ne!(
        a.metrics.windows(),
        c.metrics.windows(),
        "different seeds must differ"
    );
}

#[test]
fn drift_replan_beats_static_and_tracks_the_oracle_at_city_scale() {
    let scenario = city_scenario();
    let (workload, flipped) = flip_workload(&scenario);
    let initial = TrimCachingGenLazy::new()
        .place(&scenario)
        .expect("warm-start plan")
        .placement;
    let oracle_target = TrimCachingGenLazy::new()
        .place_with_demand(&scenario, &flipped)
        .expect("oracle plan")
        .placement;
    let base_config = serve_config(2024);

    let run = |config: ServeConfig, oracle: Option<&Placement>| -> ServeReport {
        let mut engine = ServeEngine::new(&scenario, &CostAwareLfu, config).expect("engine builds");
        engine
            .set_workload(workload.clone())
            .expect("workload fits");
        engine.warm_start(&initial).expect("warm start");
        if let Some(target) = oracle {
            engine
                .schedule_reconcile(SHIFT_S, target.clone())
                .expect("oracle schedule");
        }
        engine.run().expect("run completes")
    };

    let static_run = run(base_config.clone(), None);
    let oracle_run = run(base_config.clone(), Some(&oracle_target));
    let controller_run = run(base_config.with_control(study_control_config()), None);

    // The static placement must actually be hurt by the flip — otherwise
    // this test asserts nothing about adaptation.
    let static_pre = hit_ratio_after(&static_run, 0.0);
    let static_post = hit_ratio_after(&static_run, STEADY_FROM_S);
    let oracle_post = hit_ratio_after(&oracle_run, STEADY_FROM_S);
    let controller_post = hit_ratio_after(&controller_run, STEADY_FROM_S);
    assert!(
        static_post < static_pre,
        "the popularity flip must degrade the static baseline \
         (pre {static_pre:.4}, post {static_post:.4})"
    );

    // Acceptance: strictly above static, within five points of the
    // oracle's post-shift steady state.
    assert!(
        controller_post > static_post,
        "controller post-shift hit ratio {controller_post:.4} must beat static {static_post:.4}"
    );
    assert!(
        controller_post >= oracle_post - 0.05,
        "controller {controller_post:.4} must be within 5 points of the oracle {oracle_post:.4}"
    );

    // The controller really went through the drift path, and every
    // reconfiguration byte is accounted on the backhaul links.
    let m = &controller_run.metrics;
    assert!(m.replans_triggered >= 1);
    assert!(m.replans_drift >= 1, "the flip must fire the drift trigger");
    assert!(m.reconcile_fills_started > 0);
    assert!(m.reconcile_bytes_moved > 0);
    assert!(
        m.reconcile_bytes_moved <= m.backhaul_bytes_moved,
        "reconfiguration traffic is a subset of backhaul traffic"
    );
    assert!(m.reconcile_fills_started <= m.insertions);
    assert!(m.reconcile_evictions <= m.evictions);
    // The static baseline never touched the control path.
    assert_eq!(static_run.metrics.replans_triggered, 0);
    assert_eq!(static_run.metrics.reconcile_bytes_moved, 0);
    // The oracle staged exactly its one scheduled reconciliation.
    assert_eq!(oracle_run.metrics.replans_triggered, 1);
    assert!(oracle_run.metrics.reconcile_bytes_moved > 0);
}

#[test]
fn serve_adapt_experiment_reports_the_adaptation_ordering() {
    // The `serve-adapt` driver at reduced scale (the EXPERIMENTS.md
    // setting): controller strictly above static on the post-shift
    // steady state and within five points of the oracle.
    let table = adapt::adaptive_serving(&RunConfig::reduced()).expect("experiment runs");
    assert_eq!(table.rows.len(), 3);
    let post = |row: usize| table.rows[row].cells[1].mean;
    let (static_post, oracle_post, controller_post) = (post(0), post(1), post(2));
    assert!(
        controller_post > static_post,
        "controller {controller_post:.4} vs static {static_post:.4}"
    );
    assert!(
        controller_post >= oracle_post - 0.05,
        "controller {controller_post:.4} vs oracle {oracle_post:.4}"
    );
    // Reconfiguration traffic is reported and part of the backhaul
    // total for both adaptive variants.
    for row in 1..3 {
        let backhaul = table.rows[row].cells[3].mean;
        let reconfig = table.rows[row].cells[4].mean;
        assert!(reconfig > 0.0);
        assert!(reconfig <= backhaul);
        assert!(table.rows[row].cells[5].mean >= 1.0, "re-plans fired");
    }
}

/// The `serve-adapt-mobility` runs at the configuration EXPERIMENTS.md
/// records (the CLI default), indexed `[topology][variant]`; computed
/// once for both claims below.
fn mobility_study() -> &'static [Vec<ServeMetrics>] {
    static RUNS: OnceLock<Vec<Vec<ServeMetrics>>> = OnceLock::new();
    RUNS.get_or_init(|| adapt::mobility_runs(&RunConfig::reduced()).expect("study runs"))
}

#[test]
fn the_controller_never_trails_static_on_average_under_mobility() {
    let runs = mobility_study();
    let mean_hit = |v: usize| {
        runs.iter()
            .map(|topology| topology[v].hit_ratio())
            .sum::<f64>()
            / runs.len() as f64
    };
    for (j, trigger) in adapt::TRIGGER_POINTS.iter().enumerate() {
        let (controller, fixed) = (mean_hit(1 + j), mean_hit(0));
        assert!(
            controller >= fixed,
            "trigger {trigger}: controller {controller:.5} < static {fixed:.5}"
        );
    }
    assert!(
        runs.iter()
            .any(|topology| topology[1].replans_triggered > 0),
        "no run re-planned after a mobility merge"
    );
}

#[test]
fn a_tighter_trigger_never_replans_less_under_mobility() {
    for (t, topology) in mobility_study().iter().enumerate() {
        let replans: Vec<u64> = topology[1..].iter().map(|m| m.replans_triggered).collect();
        assert!(
            replans.windows(2).all(|pair| pair[0] >= pair[1]),
            "topology {t}: re-plans {replans:?} over triggers {:?}",
            adapt::TRIGGER_POINTS
        );
    }
}

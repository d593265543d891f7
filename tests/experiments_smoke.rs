//! Smoke tests for every experiment driver: each figure of the paper can be
//! regenerated end-to-end at reduced scale and produces a structurally
//! correct table whose values respect the paper's qualitative claims.

use trimcaching::sim::experiments::{ablation, adapt, fig1, fig4, fig5, fig6, fig7, RunConfig};
use trimcaching::sim::MonteCarloConfig;

fn smoke_config() -> RunConfig {
    RunConfig {
        monte_carlo: MonteCarloConfig {
            topologies: 2,
            fading_realisations: 5,
            seed: 99,
            threads: 0,
        },
        models_per_backbone: 3,
        library_seed: 99,
    }
}

#[test]
fn fig1_curve_is_generated() {
    let table = fig1::accuracy_vs_frozen_layers();
    assert_eq!(table.id, "fig1");
    assert!(table.rows.len() > 10);
    assert!(!table.to_markdown().is_empty());
    assert!(!table.to_csv().is_empty());
}

#[test]
fn fig4_all_three_panels_run() {
    let config = smoke_config();
    for (table, expected_id) in [
        (fig4::capacity_sweep(&config).unwrap(), "fig4a"),
        (fig4::server_sweep(&config).unwrap(), "fig4b"),
        (fig4::user_sweep(&config).unwrap(), "fig4c"),
    ] {
        assert_eq!(table.id, expected_id);
        assert_eq!(table.rows.len(), 5);
        assert_eq!(table.series.len(), 3);
        let spec = table.series_means("trimcaching-spec").unwrap();
        let ind = table.series_means("independent-caching").unwrap();
        for (s, i) in spec.iter().zip(&ind) {
            assert!((0.0..=1.0).contains(s));
            assert!(
                s >= &(i - 1e-9),
                "{expected_id}: spec {s} < independent {i}"
            );
        }
    }
}

#[test]
fn fig5_both_series_run() {
    let config = smoke_config();
    let table = fig5::capacity_sweep(&config).unwrap();
    assert_eq!(table.id, "fig5a");
    assert_eq!(table.series.len(), 2);
    let gen = table.series_means("trimcaching-gen").unwrap();
    let ind = table.series_means("independent-caching").unwrap();
    for (g, i) in gen.iter().zip(&ind) {
        assert!(g >= &(i - 1e-9));
    }
}

#[test]
fn fig6_comparisons_run() {
    let config = smoke_config();
    let a = fig6::special_case_vs_optimal(&config).unwrap();
    assert_eq!(a.rows.len(), 3);
    let optimal = a
        .rows
        .iter()
        .find(|r| r.algorithm == "exhaustive-search")
        .unwrap();
    for row in &a.rows {
        assert!(row.hit_ratio.mean <= optimal.hit_ratio.mean + 1e-9);
    }
    let b = fig6::general_case_runtime(&config).unwrap();
    assert_eq!(b.rows.len(), 2);
}

#[test]
fn fig7_mobility_runs() {
    let config = smoke_config();
    let table = fig7::mobility_robustness(&config).unwrap();
    assert_eq!(table.id, "fig7");
    assert_eq!(table.rows.first().unwrap().x, 0.0);
    assert_eq!(table.rows.last().unwrap().x, 120.0);
}

#[test]
fn serve_adapt_runs() {
    let config = smoke_config();
    let summary = adapt::adaptive_serving(&config).unwrap();
    assert_eq!(summary.id, "serve-adapt");
    assert_eq!(summary.rows.len(), 3, "static, oracle, controller");
    assert_eq!(summary.series.len(), 6);
    for row in &summary.rows {
        assert!((0.0..=1.0).contains(&row.cells[0].mean), "hit ratio");
        assert!(
            row.cells[4].mean <= row.cells[3].mean + 1e-9,
            "reconfiguration MB cannot exceed total backhaul MB"
        );
    }
    // The static baseline never re-plans and moves no reconfig bytes.
    assert_eq!(summary.rows[0].cells[5].mean, 0.0);
    assert_eq!(summary.rows[0].cells[4].mean, 0.0);
    let trace = adapt::adaptive_trace(&config).unwrap();
    assert_eq!(trace.id, "serve-adapt-trace");
    assert_eq!(trace.series.len(), 3);
    assert!(!trace.rows.is_empty());
    assert!(!trace.to_markdown().is_empty());
}

#[test]
fn serve_adapt_mobility_runs() {
    let config = smoke_config();
    let table = adapt::adaptive_mobility(&config).unwrap();
    assert_eq!(table.id, "serve-adapt-mobility");
    assert_eq!(table.series.len(), 5);
    assert_eq!(table.rows.len(), 1 + adapt::TRIGGER_POINTS.len());
    let xs: Vec<f64> = table.rows.iter().map(|r| r.x).collect();
    assert_eq!(xs[0], 0.0, "static first");
    assert_eq!(&xs[1..], &adapt::TRIGGER_POINTS[..]);
    // Static is its own baseline, never re-plans and moves no
    // reconfiguration bytes.
    let static_row = &table.rows[0].cells;
    assert_eq!(static_row[1..4].iter().map(|c| c.mean).sum::<f64>(), 0.0);
    assert!(static_row[4].mean > 0.0, "users hand over while moving");
    for row in &table.rows {
        assert!((0.0..=1.0).contains(&row.cells[0].mean), "hit ratio");
        // Every variant replays the same mobility.
        assert_eq!(row.cells[4].mean, static_row[4].mean, "handovers");
    }
}

#[test]
fn ablations_run() {
    let config = smoke_config();
    assert_eq!(ablation::epsilon_sweep(&config).unwrap().rows.len(), 5);
    assert_eq!(
        ablation::sharing_depth_sweep(&config).unwrap().rows.len(),
        5
    );
    assert_eq!(ablation::zipf_sweep(&config).unwrap().rows.len(), 5);
    assert_eq!(ablation::library_scaling(&config).unwrap().rows.len(), 4);
}

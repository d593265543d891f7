//! Adaptive serving under demand drift: static placement vs oracle
//! replan vs the online re-placement controller.
//!
//! The placement algorithms optimise a frozen demand snapshot; this
//! driver measures what happens when the snapshot lies. A piecewise
//! non-stationary workload serves the paper's Zipf demand for the first
//! ten minutes, then *flips* the popularity ranking (a half-library
//! rotation — the sharpest realistic drift: yesterday's cold models are
//! today's hot ones). Three systems replay the identical request
//! stream:
//!
//! * **static** — the TrimCaching Gen warm start, never updated: the
//!   paper's Fig. 7 operating mode;
//! * **oracle-replan** — at the moment of the shift, a re-plan solved
//!   on the *true* post-shift demand is staged through the reconciler
//!   (an upper bound no online system can beat: perfect knowledge, paid
//!   reconfiguration);
//! * **online-controller** — the `runtime::control` loop: EWMA demand
//!   estimation from served requests, drift detection on the windowed
//!   hit-ratio trace, re-plans over the *estimated* demand.
//!
//! All reconfiguration bytes cross the modelled backhaul links, so the
//! cost of adapting is visible in the same backhaul/latency columns as
//! regular misses.
//!
//! [`adaptive_mobility`] runs the same controller on the paper's other
//! source of staleness: users moving under the `paper_mix` model for the
//! two hours of Fig. 7. The paper re-runs the placement "when the
//! performance degrades to a certain threshold" (Section IV-A); the
//! study sweeps that threshold ([`DriftConfig::degradation`]) next to a
//! static placement and reports what each setting buys and costs.

use trimcaching_placement::{PlacementAlgorithm, TrimCachingGenLazy};
use trimcaching_runtime::control::DriftConfig;
use trimcaching_runtime::fanout::par_map;
use trimcaching_runtime::{
    rotate_popularity, serve, ControlConfig, CostAwareLfu, PopularityEdit, ServeConfig,
    ServeEngine, ServeMetrics, ServeReport, Workload,
};
use trimcaching_scenario::mobility::PAPER_SLOT_SECONDS;
use trimcaching_scenario::Scenario;

use crate::experiments::{LibraryKind, RunConfig};
use crate::report::{ExperimentTable, Measurement, PairedDifference};
use crate::topology::TopologyConfig;
use crate::SimError;

/// Simulated run length in seconds.
const DURATION_S: f64 = 1800.0;
/// The popularity flip fires here.
const SHIFT_S: f64 = 600.0;
/// Post-shift steady state is measured over windows ending after this.
const STEADY_FROM_S: f64 = 1200.0;
/// Per-user request rate — denser than the paper's 0.05 Hz so the
/// estimator sees enough evidence per control tick.
const RATE_HZ: f64 = 0.2;

/// The three variants, in reporting order.
const VARIANTS: [&str; 3] = ["static", "oracle-replan", "online-controller"];

/// One full adaptive-serving comparison: the three reports replaying
/// the identical seeded request stream.
struct AdaptRuns {
    reports: [ServeReport; 3],
}

/// The serving configuration of the study (control disabled; variants
/// toggle it).
fn serve_config(config: &RunConfig) -> ServeConfig {
    ServeConfig::paper_defaults()
        .with_duration_s(DURATION_S)
        .with_request_rate_hz(RATE_HZ)
        .with_seed(config.monte_carlo.seed)
}

/// The controller tuning of the study: 30 s ticks, 15% sustained-drop
/// trigger with two-tick patience, three-minute cool-down. Public so
/// the acceptance tests assert against exactly the configuration the
/// recorded experiment ran.
pub fn study_control_config() -> ControlConfig {
    ControlConfig {
        tick_s: 30.0,
        estimator_alpha: 0.4,
        min_observed_requests: 300,
        drift: DriftConfig {
            cooldown_s: 180.0,
            ..DriftConfig::paper_defaults()
        },
    }
}

/// The demand-shift topology: the paper's footprint with capacity tight
/// enough that the placement decision matters, and a *shared* (global)
/// popularity ranking so the flip moves every user's demand coherently.
fn shifted_scenario(config: &RunConfig) -> Result<Scenario, SimError> {
    let library = config.build_library(LibraryKind::Special);
    let mut topology = TopologyConfig::paper_defaults().with_capacity_gb(0.25);
    topology.demand.personalised_popularity = false;
    topology.generate(&library, config.monte_carlo.seed, 0)
}

/// Runs the three variants over the same flip workload.
fn run_variants(config: &RunConfig) -> Result<AdaptRuns, SimError> {
    let scenario = shifted_scenario(config)?;
    let base = scenario.demand();
    let (models, shift) = (scenario.num_models(), scenario.num_models() / 2);
    let flipped = rotate_popularity(base, shift)?;
    let segments = [
        (0.0, PopularityEdit::Keep),
        (SHIFT_S, PopularityEdit::rotation(models, shift)),
    ];
    let workload = Workload::piecewise(base, &segments, RATE_HZ)?;
    let initial = TrimCachingGenLazy::new()
        .place_with_demand(&scenario, base)?
        .placement;
    let oracle_target = TrimCachingGenLazy::new()
        .place_with_demand(&scenario, &flipped)?
        .placement;
    let base_config = serve_config(config);

    let run = |serve_config: ServeConfig,
               oracle: Option<&trimcaching_scenario::Placement>|
     -> Result<ServeReport, SimError> {
        let mut engine = ServeEngine::new(&scenario, &CostAwareLfu, serve_config)?;
        engine.set_workload(workload.clone())?;
        engine.warm_start(&initial)?;
        if let Some(target) = oracle {
            engine.schedule_reconcile(SHIFT_S, target.clone())?;
        }
        Ok(engine.run()?)
    };

    let static_run = run(base_config.clone(), None)?;
    let oracle_run = run(base_config.clone(), Some(&oracle_target))?;
    let controller_run = run(base_config.with_control(study_control_config()), None)?;
    Ok(AdaptRuns {
        reports: [static_run, oracle_run, controller_run],
    })
}

/// Hit ratio over the windows ending after `from_s` — the post-shift
/// steady state when `from_s` leaves room for detection and staged
/// reconciliation (zero when no window saw traffic).
pub fn hit_ratio_after(report: &ServeReport, from_s: f64) -> f64 {
    let (mut hits, mut requests) = (0u64, 0u64);
    for w in report.metrics.windows() {
        if w.end_s > from_s {
            hits += w.hits;
            requests += w.requests;
        }
    }
    if requests == 0 {
        0.0
    } else {
        hits as f64 / requests as f64
    }
}

/// Windowed hit-ratio trace of the three variants under the mid-run
/// popularity flip.
///
/// # Errors
///
/// Propagates topology, placement and runtime errors.
pub fn adaptive_trace(config: &RunConfig) -> Result<ExperimentTable, SimError> {
    let runs = run_variants(config)?;
    let mut table = ExperimentTable::new(
        "serve-adapt-trace",
        "Adaptive serving: windowed hit ratio across a mid-run popularity flip (600 s)",
        "Time (s)",
        "Windowed cache hit ratio",
        VARIANTS.iter().map(|v| v.to_string()).collect(),
    );
    let windows: Vec<_> = runs.reports[0].metrics.windows().to_vec();
    for (w, point) in windows.iter().enumerate() {
        table.push_row(
            point.end_s,
            runs.reports
                .iter()
                .map(|r| Measurement {
                    mean: r.metrics.windows().get(w).map_or(0.0, |p| p.hit_ratio()),
                    std_dev: 0.0,
                })
                .collect(),
        );
    }
    Ok(table)
}

/// Summary comparison: overall and post-shift steady-state hit ratio,
/// p95 latency, total backhaul traffic and the reconfiguration share of
/// it, and re-plans fired — one row per variant.
///
/// # Errors
///
/// Propagates topology, placement and runtime errors.
pub fn adaptive_serving(config: &RunConfig) -> Result<ExperimentTable, SimError> {
    let runs = run_variants(config)?;
    let mut table = ExperimentTable::new(
        "serve-adapt",
        "Adaptive serving under a 600 s popularity flip \
         (rows: 0 = static, 1 = oracle-replan, 2 = online-controller)",
        "Variant",
        "Metric value",
        vec![
            "hit-ratio".into(),
            "post-shift-hit-ratio".into(),
            "p95-latency-ms".into(),
            "backhaul-MB".into(),
            "reconfig-MB".into(),
            "replans".into(),
        ],
    );
    for (v, report) in runs.reports.iter().enumerate() {
        let m = &report.metrics;
        table.push_row(
            v as f64,
            vec![
                Measurement {
                    mean: m.hit_ratio(),
                    std_dev: 0.0,
                },
                Measurement {
                    mean: hit_ratio_after(report, STEADY_FROM_S),
                    std_dev: 0.0,
                },
                Measurement {
                    mean: m.p95_latency_s().unwrap_or(0.0) * 1e3,
                    std_dev: 0.0,
                },
                Measurement {
                    mean: m.backhaul_bytes_moved as f64 / 1e6,
                    std_dev: 0.0,
                },
                Measurement {
                    mean: m.reconcile_bytes_moved as f64 / 1e6,
                    std_dev: 0.0,
                },
                Measurement {
                    mean: m.replans_triggered as f64,
                    std_dev: 0.0,
                },
            ],
        );
    }
    Ok(table)
}

/// Drift thresholds ([`DriftConfig::degradation`]) swept by
/// [`adaptive_mobility`], loosest last.
pub const TRIGGER_POINTS: [f64; 4] = [0.02, 0.05, 0.10, 0.20];

/// Length of a mobility run: the two hours of Fig. 7.
const MOBILITY_DURATION_S: f64 = 7200.0;

/// Serves the fig4a deployment (`M = 10`, `K = 30`, `Q = 1` GB) on every
/// topology of the ensemble with users moving in `paper_mix` slots: a
/// static TrimCaching Gen-lazy warm start first, then the same warm
/// start under [`study_control_config`] at each [`TRIGGER_POINTS`]
/// threshold. Returns the metrics indexed `[topology][variant]`, where
/// variant 0 is static and variant `1 + j` is trigger `j`. Every variant
/// of a topology replays the same seeded mobility and request streams.
///
/// # Errors
///
/// Fails on zero topologies; propagates topology, placement and runtime
/// errors.
pub fn mobility_runs(config: &RunConfig) -> Result<Vec<Vec<ServeMetrics>>, SimError> {
    if config.monte_carlo.topologies == 0 {
        return Err(SimError::InvalidConfig {
            reason: "at least one topology is required".into(),
        });
    }
    let library = config.build_library(LibraryKind::Special);
    let topology = TopologyConfig::paper_defaults();
    let mc = &config.monte_carlo;
    par_map(
        &mut vec![(); mc.topologies],
        mc.threads,
        |index, _| -> Result<Vec<ServeMetrics>, SimError> {
            let scenario = topology.generate(&library, mc.seed, index as u64)?;
            let initial = TrimCachingGenLazy::new().place(&scenario)?.placement;
            let base = ServeConfig::paper_defaults()
                .with_duration_s(MOBILITY_DURATION_S)
                .with_request_rate_hz(RATE_HZ)
                .with_mobility_slot_s(PAPER_SLOT_SECONDS)
                .with_seed(mc.seed.wrapping_add(index as u64));
            let controlled = TRIGGER_POINTS.iter().map(|&degradation| {
                let mut control = study_control_config();
                control.drift.degradation = degradation;
                base.clone().with_control(control)
            });
            std::iter::once(base.clone())
                .chain(controlled)
                .map(|serve_config| {
                    Ok(serve(&scenario, &CostAwareLfu, Some(&initial), &serve_config)?.metrics)
                })
                .collect()
        },
    )
}

/// The controller under user mobility, one row per variant (x = the
/// drift threshold, 0 = static): mean hit ratio, its paired difference
/// against static over the topologies, re-plans, reconfiguration MB and
/// handovers.
///
/// # Errors
///
/// As [`mobility_runs`].
pub fn adaptive_mobility(config: &RunConfig) -> Result<ExperimentTable, SimError> {
    let runs = mobility_runs(config)?;
    let mut table = ExperimentTable::new(
        "serve-adapt-mobility",
        format!(
            "Re-placement under paper_mix mobility, {MOBILITY_DURATION_S} s over {} topologies \
             (M = 10, K = 30, Q = 1 GB; cells: mean ± std over topologies, except \
             Δ vs static: mean paired difference ± 95% CI half-width)",
            runs.len()
        ),
        "Drift threshold (0 = static)",
        "Metric value",
        vec![
            "hit-ratio".into(),
            "Δ hit-ratio vs static".into(),
            "replans".into(),
            "reconfig-MB".into(),
            "handovers".into(),
        ],
    );
    let static_hits: Vec<f64> = runs
        .iter()
        .map(|topology| topology[0].hit_ratio())
        .collect();
    for (v, x) in std::iter::once(0.0).chain(TRIGGER_POINTS).enumerate() {
        let samples = |f: fn(&ServeMetrics) -> f64| -> Vec<f64> {
            runs.iter().map(|topology| f(&topology[v])).collect()
        };
        let hits = samples(ServeMetrics::hit_ratio);
        let differences: Vec<f64> = hits.iter().zip(&static_hits).map(|(a, b)| a - b).collect();
        let paired = PairedDifference::from_differences(&differences);
        table.push_row(
            x,
            vec![
                Measurement::from_samples(&hits),
                Measurement {
                    mean: paired.mean,
                    std_dev: paired.half_width,
                },
                Measurement::from_samples(&samples(|m| m.replans_triggered as f64)),
                Measurement::from_samples(&samples(|m| m.reconcile_bytes_moved as f64 / 1e6)),
                Measurement::from_samples(&samples(|m| m.handovers as f64)),
            ],
        );
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_and_trace_tables_are_structurally_sound() {
        let config = RunConfig::smoke();
        let summary = adaptive_serving(&config).unwrap();
        assert_eq!(summary.id, "serve-adapt");
        assert_eq!(summary.rows.len(), 3);
        assert_eq!(summary.series.len(), 6);
        for row in &summary.rows {
            let hit = row.cells[0].mean;
            assert!((0.0..=1.0).contains(&hit));
            let backhaul = row.cells[3].mean;
            let reconfig = row.cells[4].mean;
            assert!(
                reconfig <= backhaul + 1e-9,
                "reconfiguration traffic is part of the backhaul total"
            );
        }
        // Static never re-plans; the oracle re-plans exactly once.
        assert_eq!(summary.rows[0].cells[5].mean, 0.0);
        assert_eq!(summary.rows[1].cells[5].mean, 1.0);
        // Only the oracle and controller move reconfiguration bytes.
        assert_eq!(summary.rows[0].cells[4].mean, 0.0);

        let trace = adaptive_trace(&config).unwrap();
        assert_eq!(trace.id, "serve-adapt-trace");
        assert_eq!(trace.series.len(), 3);
        assert_eq!(trace.rows.len(), 30, "1800 s of 60 s windows");
    }
}

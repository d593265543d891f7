//! Online re-placement: the in-runtime control loop under demand drift.
//!
//! The paper notes that the operator can re-run the placement "when the
//! performance degrades to a certain threshold" (Section IV-A). This
//! example drives that loop: the `runtime::control` subsystem closing
//! it *inside* a live serving run, tuned as the recorded `serve-adapt`
//! study (`adapt::study_control_config`). A popularity flip hits
//! mid-run; the controller estimates the new demand from the requests
//! it serves, detects the hit-ratio drift, re-solves the placement with
//! the shared-block-aware lazy greedy and stages the delta as
//! block-granular backhaul fills — and the printout shows what that
//! buys over the frozen placement: replan count, hit-ratio recovery
//! time, and the reconfiguration bytes paid.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example online_replacement
//! ```

use trimcaching::prelude::*;
use trimcaching::runtime::{PopularityEdit, Workload};
use trimcaching::sim::experiments::adapt::study_control_config;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let library = SpecialCaseBuilder::paper_setup()
        .models_per_backbone(10)
        .build(7);
    println!("model library: {}", LibraryStats::compute(&library));

    // The paper footprint with tight caches and a *shared* popularity
    // ranking, so the flip moves the whole population coherently.
    let mut topology = TopologyConfig::paper_defaults().with_capacity_gb(0.25);
    topology.demand.personalised_popularity = false;
    let scenario = topology.generate(&library, 7, 0)?;

    // Thirty simulated minutes; the popularity ranking flips at minute
    // ten (model i inherits the demand of model i + I/2).
    let shift_s = 600.0;
    let base = scenario.demand();
    let (models, shift) = (scenario.num_models(), scenario.num_models() / 2);
    let segments = [
        (0.0, PopularityEdit::Keep),
        (shift_s, PopularityEdit::rotation(models, shift)),
    ];
    let workload = Workload::piecewise(base, &segments, 0.2)?;
    let initial = TrimCachingGenLazy::new().place(&scenario)?.placement;

    let config = ServeConfig::paper_defaults()
        .with_duration_s(1800.0)
        .with_request_rate_hz(0.2)
        .with_seed(17);
    let control = study_control_config();

    let run = |config: ServeConfig| -> Result<ServeReport, Box<dyn std::error::Error>> {
        let mut engine = ServeEngine::new(&scenario, &CostAwareLfu, config)?;
        engine.set_workload(workload.clone())?;
        engine.warm_start(&initial)?;
        Ok(engine.run()?)
    };
    let static_run = run(config.clone())?;
    let adaptive_run = run(config.with_control(control))?;

    println!("\n{:>10} {:>16} {:>16}", "time (s)", "static", "controller");
    for (s, a) in static_run
        .metrics
        .windows()
        .iter()
        .zip(adaptive_run.metrics.windows())
    {
        let marker = if s.end_s == shift_s { "  <- flip" } else { "" };
        println!(
            "{:>10} {:>16.4} {:>16.4}{marker}",
            s.end_s,
            s.hit_ratio(),
            a.hit_ratio()
        );
    }

    let sm = &static_run.metrics;
    let am = &adaptive_run.metrics;
    println!(
        "\nstatic placement:   hit ratio {:.4}, backhaul {:.2} GB",
        sm.hit_ratio(),
        sm.backhaul_bytes_moved as f64 / 1e9
    );
    println!(
        "online controller:  hit ratio {:.4}, backhaul {:.2} GB \
         ({:.2} GB reconfiguration)",
        am.hit_ratio(),
        am.backhaul_bytes_moved as f64 / 1e9,
        am.reconcile_bytes_moved as f64 / 1e9
    );
    println!(
        "controller activity: {} control ticks, {} replans ({} drift-triggered), \
         {} staged fills, {} reconcile evictions",
        am.control_ticks,
        am.replans_triggered,
        am.replans_drift,
        am.reconcile_fills_started,
        am.reconcile_evictions
    );
    if am.recoveries > 0 {
        println!(
            "hit-ratio recovery:  {:.0} s after the replan (mean over {} recoveries)",
            am.mean_recovery_s(),
            am.recoveries
        );
    }
    println!(
        "\nThe frozen placement keeps serving yesterday's catalogue after the flip;\n\
         the controller pays a bounded burst of reconfiguration traffic to\n\
         re-converge on the observed demand and ends the run ahead on hit ratio."
    );
    Ok(())
}

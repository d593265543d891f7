//! Bench + regeneration target for Fig. 7 — robustness under user
//! mobility.
//!
//! Regenerates the Fig. 7 time series once (printed and recorded in
//! EXPERIMENTS.md) and measures the cost of one mobility step: advancing
//! the kinematics by 20 minutes of 5-second slots and re-evaluating a stale
//! placement on the fresh snapshot.

use rand::rngs::StdRng;
use rand::SeedableRng;

use trimcaching_bench::measure;
use trimcaching_placement::{PlacementAlgorithm, TrimCachingSpec};
use trimcaching_scenario::mobility::MobilityModel;
use trimcaching_sim::experiments::{fig7, LibraryKind, RunConfig};
use trimcaching_sim::{MonteCarloConfig, TopologyConfig};
use trimcaching_wireless::geometry::DeploymentArea;

fn table_config() -> RunConfig {
    RunConfig {
        monte_carlo: MonteCarloConfig {
            topologies: 5,
            fading_realisations: 50,
            seed: 2024,
            threads: 0,
        },
        models_per_backbone: 10,
        library_seed: 2024,
    }
}

fn main() {
    let cfg = table_config();
    let table = fig7::mobility_robustness(&cfg).expect("fig7 runs");
    eprintln!("{}", table.to_markdown());
    if let Some(spec) = table.series_means("trimcaching-spec") {
        if spec[0] > 0.0 {
            eprintln!(
                "[fig7] TrimCaching Spec degradation over 2 h: {:.2}%\n",
                (spec[0] - spec.last().unwrap()) / spec[0] * 100.0
            );
        }
    }

    let library = cfg.build_library(LibraryKind::Special);
    let scenario = TopologyConfig::paper_defaults()
        .with_users(10)
        .generate(&library, 2024, 0)
        .expect("topology generates");
    let placement = TrimCachingSpec::new()
        .place(&scenario)
        .expect("placement runs")
        .placement;
    let area = DeploymentArea::paper_default();
    let positions: Vec<_> = scenario.users().iter().map(|u| u.position()).collect();

    measure("fig7/mobility/20min_step_and_reevaluation", 10, || {
        let mut rng = StdRng::seed_from_u64(17);
        let mut mobility = MobilityModel::paper_mix(&positions, area, &mut rng);
        let moved_positions = mobility.run_slots(240, &mut rng);
        let moved = scenario.with_user_positions(&moved_positions).unwrap();
        moved.hit_ratio(&placement)
    });
}

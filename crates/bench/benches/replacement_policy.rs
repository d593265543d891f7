//! Bench + regeneration target for the online re-placement study
//! (extension of Fig. 7).
//!
//! Regenerates the static-vs-adaptive time series and the trigger-threshold
//! trade-off once (printed and recorded in EXPERIMENTS.md) and measures the
//! cost of one full two-hour mobility replay with the 5% re-placement
//! policy.

use trimcaching_bench::measure;
use trimcaching_placement::TrimCachingGen;
use trimcaching_sim::experiments::{replacement, LibraryKind, RunConfig};
use trimcaching_sim::replacement::{replay_with_policy, ReplacementPolicy, ReplayConfig};
use trimcaching_sim::{MonteCarloConfig, TopologyConfig};
use trimcaching_wireless::geometry::DeploymentArea;

fn table_config() -> RunConfig {
    RunConfig {
        monte_carlo: MonteCarloConfig {
            topologies: 3,
            fading_realisations: 20,
            seed: 2024,
            threads: 0,
        },
        models_per_backbone: 10,
        library_seed: 2024,
    }
}

fn main() {
    let cfg = table_config();
    let study = replacement::replacement_study(&cfg).expect("replacement study runs");
    eprintln!("{}", study.to_markdown());
    let sweep = replacement::trigger_sweep(&cfg).expect("trigger sweep runs");
    eprintln!("{}", sweep.to_markdown());

    let library = cfg.build_library(LibraryKind::Special);
    let topology = TopologyConfig::paper_defaults().with_users(10);
    let scenario = topology
        .generate(&library, 2024, 0)
        .expect("topology generates");
    let area = DeploymentArea::paper_default();
    let algorithm = TrimCachingGen::new();
    let policy = ReplacementPolicy::five_percent();
    let replay = ReplayConfig {
        total_minutes: 120,
        sample_interval_minutes: 20,
        fading_realisations: 0,
    };

    measure("replacement/replay/two_hour_adaptive_replay", 10, || {
        replay_with_policy(&scenario, area, &algorithm, Some(&policy), &replay, 17, 23).unwrap()
    });
}

//! Region-sharded serving: thread-count determinism and throughput
//! scaling of [`trimcaching_runtime::ShardedServeEngine`].
//!
//! Two studies back the sharded engine's contract:
//!
//! * [`sharded_scaling_study`] sweeps the shard count `R` on a
//!   district-scale city and, for every `R`, runs the *same* seed once
//!   on a single worker thread and once on the requested pool. The
//!   merged reports must be identical — the `identical` series is a
//!   hard check, not a statistic — and the wall-clock series record the
//!   serving throughput and its per-core normalisation.
//! * [`sharded_xl_study`] is the million-user acceptance path: a
//!   15 km × 15 km city with `10⁶` users built on clustered demand
//!   (256 Zipf classes, so the demand matrices stay at `256 × I`
//!   instead of `10⁶ × I`) and sparse eligibility, served sharded and
//!   compared across worker-thread counts byte for byte.
//!
//! Throughput speedup is hardware-dependent (a single-core host runs
//! the pool sequentially); the determinism columns are not — they must
//! hold on any machine.

use std::time::Instant;

use trimcaching_runtime::fanout::worker_threads;
use trimcaching_runtime::{CostAwareLfu, ServeConfig, ShardedServeEngine};

use crate::experiments::{LibraryKind, RunConfig};
use crate::report::{ExperimentTable, Measurement};
use crate::topology::CityScaleConfig;
use crate::SimError;

/// The district the scaling sweep serves: 2 km × 2 km, 4 000 users on
/// 64 clustered demand classes, a mostly idle population.
fn district() -> CityScaleConfig {
    let mut city = CityScaleConfig::district()
        .with_users(4_000)
        .with_demand_classes(64);
    city.area_side_m = 2_000.0;
    city.capacity_gb = 0.4;
    city
}

/// The serving configuration of both studies: mobility on (so shards
/// actually merge and migrate at slot boundaries) and a horizon long
/// enough for a stable requests-per-second figure.
fn serve_config(config: &RunConfig, duration_s: f64) -> ServeConfig {
    ServeConfig::paper_defaults()
        .with_seed(config.monte_carlo.seed)
        .with_duration_s(duration_s)
        .with_request_rate_hz(0.05)
        .with_mobility_slot_s(10.0)
}

/// The worker count a pool of `threads` actually uses for `shards`
/// shards (`0` = all available cores).
fn effective_workers(threads: usize, shards: usize) -> usize {
    worker_threads(threads).min(shards).max(1)
}

/// Shard-count sweep `R ∈ {1, 2, …, max_shards}` (powers of two):
/// serves the same district at every `R` on one worker thread and on a
/// `threads`-wide pool, requires the merged reports to be identical,
/// and reports throughput, per-core throughput and the hit ratio.
///
/// # Errors
///
/// Returns a [`SimError`] for invalid configurations, engine failures,
/// or — the point of the study — a trace that differs between worker
/// pool sizes.
pub fn sharded_scaling_study(
    config: &RunConfig,
    max_shards: usize,
    threads: usize,
) -> Result<ExperimentTable, SimError> {
    let library = config.build_library(LibraryKind::Special);
    let scenario = district().generate(&library, config.monte_carlo.seed, 0)?;
    let serve_cfg = serve_config(config, 120.0);
    let mut table = ExperimentTable::new(
        "sharded-scaling",
        "Region-sharded serving: determinism across thread counts and throughput vs shards",
        "Shards R",
        "Requests/s (throughput series) / ratio (hit-ratio, identical)",
        vec![
            "throughput-req-s".into(),
            "throughput-req-s-core".into(),
            "hit-ratio".into(),
            "identical-across-threads".into(),
        ],
    );
    let mut shard_counts = vec![1usize];
    while let Some(&last) = shard_counts.last() {
        if last * 2 > max_shards.max(1) {
            break;
        }
        shard_counts.push(last * 2);
    }
    for &shards in &shard_counts {
        let serial = ShardedServeEngine::new(&scenario, &CostAwareLfu, serve_cfg.clone(), shards)?
            .with_threads(1)
            .run()?;
        #[expect(
            clippy::disallowed_methods,
            reason = "times the pooled run for the throughput column; reporting only, never simulated time"
        )]
        let started = Instant::now();
        let pooled = ShardedServeEngine::new(&scenario, &CostAwareLfu, serve_cfg.clone(), shards)?
            .with_threads(threads)
            .run()?;
        let wall_s = started.elapsed().as_secs_f64().max(1e-9);
        if serial != pooled {
            return Err(SimError::InvalidConfig {
                reason: format!(
                    "sharded run at R={shards} differs between 1 and {threads} worker threads"
                ),
            });
        }
        let throughput = pooled.metrics.requests as f64 / wall_s;
        let workers = effective_workers(threads, shards) as f64;
        table.push_row(
            shards as f64,
            vec![
                Measurement::from_samples(&[throughput]),
                Measurement::from_samples(&[throughput / workers]),
                Measurement::from_samples(&[pooled.metrics.hit_ratio()]),
                Measurement::from_samples(&[1.0]),
            ],
        );
    }
    Ok(table)
}

/// Million-user acceptance run: a full-size city (`10⁶` users, ≈ 1 000
/// Poisson servers, clustered demand, sparse eligibility) served with
/// 8 region shards for a short horizon, once on 1 worker thread and
/// once on `threads`. The reports must be byte-identical; the table
/// records the scale, the throughput and the check.
///
/// # Errors
///
/// Returns a [`SimError`] on engine failures or a thread-count
/// determinism violation.
pub fn sharded_xl_study(config: &RunConfig, threads: usize) -> Result<ExperimentTable, SimError> {
    let library = config.build_library(LibraryKind::Special);
    let city = CityScaleConfig::city()
        .with_users(1_000_000)
        .with_demand_classes(256);
    let scenario = city.generate(&library, config.monte_carlo.seed, 0)?;
    let serve_cfg = serve_config(config, 30.0);
    let shards = 8usize;
    let mut table = ExperimentTable::new(
        "sharded-xl",
        "Million-user sharded serving: byte-identity across worker-thread counts",
        "Users",
        "Count (users, servers, requests) / req/s (throughput) / ratio (identical)",
        vec![
            "servers".into(),
            "requests".into(),
            "throughput-req-s".into(),
            "identical-across-threads".into(),
        ],
    );
    let serial = ShardedServeEngine::new(&scenario, &CostAwareLfu, serve_cfg.clone(), shards)?
        .with_threads(1)
        .run()?;
    #[expect(
        clippy::disallowed_methods,
        reason = "times the pooled run for the throughput column; reporting only, never simulated time"
    )]
    let started = Instant::now();
    let pooled = ShardedServeEngine::new(&scenario, &CostAwareLfu, serve_cfg, shards)?
        .with_threads(threads)
        .run()?;
    let wall_s = started.elapsed().as_secs_f64().max(1e-9);
    if serial != pooled {
        return Err(SimError::InvalidConfig {
            reason: format!(
                "million-user sharded run differs between 1 and {threads} worker threads"
            ),
        });
    }
    table.push_row(
        scenario.num_users() as f64,
        vec![
            Measurement::from_samples(&[scenario.num_servers() as f64]),
            Measurement::from_samples(&[pooled.metrics.requests as f64]),
            Measurement::from_samples(&[pooled.metrics.requests as f64 / wall_s]),
            Measurement::from_samples(&[1.0]),
        ],
    );
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_study_is_deterministic_and_covers_the_sweep() {
        // Smoke-sized: tiny library, short horizon via a trimmed config.
        let config = RunConfig::smoke();
        let table = sharded_scaling_study(&config, 4, 2).unwrap();
        assert_eq!(table.rows.len(), 3, "R = 1, 2, 4");
        let identical = table.series_means("identical-across-threads").unwrap();
        assert!(identical.iter().all(|&v| v == 1.0));
        let throughput = table.series_means("throughput-req-s").unwrap();
        assert!(throughput.iter().all(|&v| v > 0.0));
    }
}

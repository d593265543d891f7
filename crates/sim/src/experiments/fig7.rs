//! Fig. 7 — robustness of a stale placement under user mobility.
//!
//! `M = 10`, `K = 10`, `Q = 1` GB. A placement is computed once on the
//! initial snapshot with TrimCaching Spec and TrimCaching Gen; users then
//! move for two hours following the pedestrian/bike/vehicle mix of
//! Section VII-E (5-second slots), and the *unchanged* placement is
//! re-evaluated on fresh snapshots at regular intervals. The paper reports
//! only ≈6.4% (Spec) and ≈5.4% (Gen) degradation over the two hours,
//! arguing that model replacement does not need to be re-run frequently.

use rand::rngs::StdRng;
use rand::SeedableRng;

use trimcaching_placement::{PlacementAlgorithm, TrimCachingGen, TrimCachingSpec};
use trimcaching_scenario::mobility::{MobilityModel, PAPER_SLOT_SECONDS};
use trimcaching_wireless::geometry::DeploymentArea;

use super::{LibraryKind, RunConfig};
use crate::report::{ExperimentTable, Measurement};
use crate::topology::TopologyConfig;
use crate::SimError;

/// Total simulated duration in minutes (the paper's Fig. 7 spans 2 hours).
pub const TOTAL_MINUTES: usize = 120;
/// Evaluation interval in minutes.
pub const SAMPLE_INTERVAL_MINUTES: usize = 20;

/// Runs the mobility-robustness study and reports the cache hit ratio of
/// the stale placements over time.
pub fn mobility_robustness(config: &RunConfig) -> Result<ExperimentTable, SimError> {
    let library = config.build_library(LibraryKind::Special);
    let topology = TopologyConfig::paper_defaults()
        .with_users(10)
        .with_capacity_gb(1.0);
    let spec = TrimCachingSpec::new();
    let gen = TrimCachingGen::new();
    let algorithms: Vec<&(dyn PlacementAlgorithm + Sync)> = vec![&spec, &gen];
    let mut table = ExperimentTable::new(
        "fig7",
        "Cache hit ratio over time under user mobility (M = 10, K = 10, Q = 1 GB)",
        "Time (min)",
        "Cache hit ratio",
        algorithms.iter().map(|a| a.name().to_string()).collect(),
    );

    let num_samples = TOTAL_MINUTES / SAMPLE_INTERVAL_MINUTES;
    let slots_per_sample =
        (SAMPLE_INTERVAL_MINUTES as f64 * 60.0 / PAPER_SLOT_SECONDS).round() as usize;
    // hit[time_sample][algorithm] accumulated over topologies.
    let mut per_time: Vec<Vec<Vec<f64>>> =
        vec![vec![Vec::new(); algorithms.len()]; num_samples + 1];

    for topo_index in 0..config.monte_carlo.topologies {
        let scenario = topology.generate(&library, config.monte_carlo.seed, topo_index as u64)?;
        let placements: Vec<_> = algorithms
            .iter()
            .map(|a| a.place(&scenario).map(|o| o.placement))
            .collect::<Result<_, _>>()?;

        let mut fading_rng = StdRng::seed_from_u64(
            config
                .monte_carlo
                .seed
                .wrapping_add(topo_index as u64)
                .wrapping_mul(0x9E37_79B9),
        );
        // t = 0 evaluation on the initial snapshot.
        for (a, placement) in placements.iter().enumerate() {
            let hit = scenario.average_hit_ratio_under_fading(
                placement,
                config.monte_carlo.fading_realisations,
                &mut fading_rng,
            )?;
            per_time[0][a].push(hit);
        }

        // Mobility replay: the placement stays fixed, the snapshot moves.
        let area =
            DeploymentArea::new(topology.area_side_m).map_err(|e| SimError::Scenario(e.into()))?;
        let initial_positions: Vec<_> = scenario.users().iter().map(|u| u.position()).collect();
        let mut mobility_rng = StdRng::seed_from_u64(
            config
                .monte_carlo
                .seed
                .wrapping_mul(31)
                .wrapping_add(topo_index as u64),
        );
        let mut mobility = MobilityModel::paper_mix(&initial_positions, area, &mut mobility_rng);
        // The snapshot evolves in place along the trajectory: each sample
        // moves every user and recomputes radio state and eligibility in
        // the snapshot's own buffers (bit-identical to a full
        // `with_user_positions` rebuild, without cloning the inputs).
        let mut moved = scenario.clone();
        for per_sample in per_time.iter_mut().skip(1).take(num_samples) {
            let positions = mobility.run_slots(slots_per_sample, &mut mobility_rng);
            moved.update_user_positions(&positions)?;
            for (a, placement) in placements.iter().enumerate() {
                let hit = moved.average_hit_ratio_under_fading(
                    placement,
                    config.monte_carlo.fading_realisations,
                    &mut fading_rng,
                )?;
                per_sample[a].push(hit);
            }
        }
    }

    for (sample, series) in per_time.iter().enumerate() {
        let cells: Vec<Measurement> = series
            .iter()
            .map(|samples| Measurement::from_samples(samples))
            .collect();
        table.push_row((sample * SAMPLE_INTERVAL_MINUTES) as f64, cells);
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montecarlo::MonteCarloConfig;

    #[test]
    fn mobility_study_reports_all_time_points() {
        let config = RunConfig {
            monte_carlo: MonteCarloConfig {
                topologies: 1,
                fading_realisations: 0,
                seed: 13,
                threads: 1,
            },
            models_per_backbone: 2,
            library_seed: 13,
        };
        let table = mobility_robustness(&config).unwrap();
        assert_eq!(table.id, "fig7");
        assert_eq!(
            table.rows.len(),
            TOTAL_MINUTES / SAMPLE_INTERVAL_MINUTES + 1
        );
        assert_eq!(table.rows[0].x, 0.0);
        assert_eq!(table.rows.last().unwrap().x, TOTAL_MINUTES as f64);
        for row in &table.rows {
            for cell in &row.cells {
                assert!((0.0..=1.0).contains(&cell.mean));
            }
        }
        // The placement is computed for the initial snapshot, so the hit
        // ratio at t = 0 should be at least as good as the 2-hour average.
        let spec_series = table.series_means("trimcaching-spec").unwrap();
        let avg_later: f64 = spec_series[1..].iter().sum::<f64>() / (spec_series.len() - 1) as f64;
        assert!(spec_series[0] >= avg_later - 0.25);
    }
}

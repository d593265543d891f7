//! Ablation studies on the reproduction's design choices (beyond the
//! paper's own figures).
//!
//! * [`epsilon_sweep`] — how the DP rounding parameter ε trades cache hit
//!   ratio against running time (quantifies Proposition 4 empirically);
//! * [`sharing_depth_sweep`] — how the hit-ratio gain of TrimCaching over
//!   Independent Caching depends on how deeply downstream models freeze
//!   their backbones (i.e. on the shared fraction of bytes);
//! * [`zipf_sweep`] — sensitivity of all three algorithms to the request
//!   popularity skew;
//! * [`library_scaling`] — running time of Spec/Gen/Independent as the
//!   model library grows;
//! * [`backhaul_sweep`] — how the effective edge-to-edge throughput changes
//!   the value of relayed delivery (Eq. 5) and hence of careful placement;
//! * [`deadline_sweep`] — sensitivity to the end-to-end latency budgets
//!   `T̄_{k,i}`;
//! * [`shadowing_sweep`] — robustness of expected-rate placements when the
//!   channel additionally sees log-normal shadowing the optimiser did not
//!   model.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use trimcaching_modellib::builders::{Backbone, SpecialCaseBuilder};
use trimcaching_placement::{
    IndependentCaching, PlacementAlgorithm, TrimCachingGen, TrimCachingSpec,
};
use trimcaching_wireless::shadowing::ShadowedRayleigh;

use super::{sweep, LibraryKind, RunConfig};
use crate::montecarlo::evaluate_algorithms;
use crate::report::{ExperimentTable, Measurement};
use crate::topology::TopologyConfig;
use crate::SimError;

/// The ε values swept by [`epsilon_sweep`].
pub const EPSILON_POINTS: [f64; 5] = [0.0, 0.05, 0.1, 0.2, 0.5];

/// Ablation: cache hit ratio and running time of TrimCaching Spec as a
/// function of the rounding parameter ε.
pub fn epsilon_sweep(config: &RunConfig) -> Result<ExperimentTable, SimError> {
    let library = config.build_library(LibraryKind::Special);
    let topology = TopologyConfig::paper_defaults().with_capacity_gb(0.75);
    let mut table = ExperimentTable::new(
        "ablation-epsilon",
        "TrimCaching Spec: effect of the DP rounding parameter ε (Q = 0.75 GB)",
        "Rounding parameter ε",
        "Cache hit ratio / runtime",
        vec!["hit ratio".into(), "runtime (s)".into()],
    );
    for &epsilon in &EPSILON_POINTS {
        let spec = TrimCachingSpec::new().with_epsilon(epsilon);
        let algorithms: Vec<&(dyn PlacementAlgorithm + Sync)> = vec![&spec];
        let samples = evaluate_algorithms(&library, &topology, &algorithms, &config.monte_carlo)?;
        table.push_row(
            epsilon,
            vec![samples[0].hit_ratio(), samples[0].runtime_s()],
        );
    }
    Ok(table)
}

/// Ablation: hit-ratio gain of sharing-aware placement as a function of the
/// freezing depth (and hence the fraction of shared bytes).
///
/// The x axis is the fraction of each backbone's freeze range used
/// (0 = freeze at the shallow end of the paper range, 1 = at the deep end).
pub fn sharing_depth_sweep(config: &RunConfig) -> Result<ExperimentTable, SimError> {
    let fractions = [0.0, 0.25, 0.5, 0.75, 1.0];
    let topology = TopologyConfig::paper_defaults().with_capacity_gb(0.75);
    let gen = TrimCachingGen::new();
    let ind = IndependentCaching::new();
    let algorithms: Vec<&(dyn PlacementAlgorithm + Sync)> = vec![&gen, &ind];
    let mut table = ExperimentTable::new(
        "ablation-sharing",
        "Hit-ratio gain vs. freezing depth (shared fraction of model bytes)",
        "Freeze-depth fraction of the paper range",
        "Cache hit ratio",
        algorithms.iter().map(|a| a.name().to_string()).collect(),
    );
    for &fraction in &fractions {
        // Rebuild the backbone family with a single freeze depth placed at
        // the requested fraction of each paper range.
        let backbones: Vec<Backbone> = Backbone::paper_family()
            .iter()
            .map(|bb| {
                let (lo, hi) = bb.freeze_range();
                let depth = lo + ((hi - lo) as f64 * fraction).round() as usize;
                Backbone::new(
                    bb.name().to_string(),
                    bb.layer_sizes_bytes().to_vec(),
                    (depth.max(1), depth.max(1)),
                    bb.head_size_bytes(),
                )
            })
            .collect::<Result<_, _>>()?;
        let library = SpecialCaseBuilder::with_backbones(backbones)
            .models_per_backbone(config.models_per_backbone)
            .build(config.library_seed);
        let samples = evaluate_algorithms(&library, &topology, &algorithms, &config.monte_carlo)?;
        table.push_row(fraction, samples.iter().map(|s| s.hit_ratio()).collect());
    }
    Ok(table)
}

/// Ablation: sensitivity of the three algorithms to the Zipf popularity
/// exponent.
pub fn zipf_sweep(config: &RunConfig) -> Result<ExperimentTable, SimError> {
    let exponents = [0.0, 0.4, 0.8, 1.2, 1.6];
    let library = config.build_library(LibraryKind::Special);
    let spec = TrimCachingSpec::new();
    let gen = TrimCachingGen::new();
    let ind = IndependentCaching::new();
    let algorithms: Vec<&(dyn PlacementAlgorithm + Sync)> = vec![&spec, &gen, &ind];
    let points: Vec<(f64, TopologyConfig)> = exponents
        .iter()
        .map(|&s| {
            let mut topo = TopologyConfig::paper_defaults().with_capacity_gb(0.75);
            topo.demand.zipf_exponent = s;
            (s, topo)
        })
        .collect();
    sweep(
        "ablation-zipf",
        "Sensitivity to the Zipf popularity exponent (Q = 0.75 GB)",
        "Zipf exponent",
        &library,
        &points,
        &algorithms,
        &config.monte_carlo,
    )
}

/// Ablation: single-topology running time of the three algorithms as the
/// library size grows.
pub fn library_scaling(config: &RunConfig) -> Result<ExperimentTable, SimError> {
    let sizes = [2usize, 5, 10, 20];
    let topology = TopologyConfig::paper_defaults();
    let spec = TrimCachingSpec::new();
    let gen = TrimCachingGen::new();
    let ind = IndependentCaching::new();
    let algorithms: Vec<&(dyn PlacementAlgorithm + Sync)> = vec![&spec, &gen, &ind];
    let mut table = ExperimentTable::new(
        "ablation-scaling",
        "Optimisation time vs. library size (single topology, seconds)",
        "Models per backbone",
        "Running time (s)",
        algorithms.iter().map(|a| a.name().to_string()).collect(),
    );
    for &per_backbone in &sizes {
        let library = SpecialCaseBuilder::paper_setup()
            .models_per_backbone(per_backbone)
            .build(config.library_seed);
        let scenario = topology.generate(&library, config.monte_carlo.seed, 0)?;
        let mut cells = Vec::new();
        for algorithm in &algorithms {
            #[expect(
                clippy::disallowed_methods,
                reason = "times the placement solve for the ablation's runtime column; reporting only, never simulated time"
            )]
            let start = Instant::now();
            let outcome = algorithm.place(&scenario)?;
            let elapsed = start
                .elapsed()
                .as_secs_f64()
                .max(outcome.runtime.as_secs_f64());
            cells.push(Measurement {
                mean: elapsed,
                std_dev: 0.0,
            });
        }
        table.push_row((per_backbone * 3) as f64, cells);
    }
    Ok(table)
}

/// Effective per-transfer backhaul throughputs (Gbps) swept by
/// [`backhaul_sweep`].
pub const BACKHAUL_POINTS_GBPS: [f64; 5] = [0.1, 0.5, 1.0, 5.0, 10.0];

/// Ablation: sensitivity to the effective edge-to-edge throughput used for
/// relayed delivery (Eq. 5). The paper provisions 10 Gbps links; the
/// reproduction defaults to 1 Gbps effective per transfer (see
/// [`TopologyConfig::backhaul_rate_bps`] for why), and this sweep shows how
/// that choice moves the curves.
pub fn backhaul_sweep(config: &RunConfig) -> Result<ExperimentTable, SimError> {
    let library = config.build_library(LibraryKind::Special);
    let spec = TrimCachingSpec::new();
    let gen = TrimCachingGen::new();
    let ind = IndependentCaching::new();
    let algorithms: Vec<&(dyn PlacementAlgorithm + Sync)> = vec![&spec, &gen, &ind];
    let points: Vec<(f64, TopologyConfig)> = BACKHAUL_POINTS_GBPS
        .iter()
        .map(|&gbps| {
            let mut topo = TopologyConfig::paper_defaults().with_capacity_gb(0.75);
            topo.backhaul_rate_bps = gbps * 1.0e9;
            (gbps, topo)
        })
        .collect();
    sweep(
        "ablation-backhaul",
        "Sensitivity to the effective edge-to-edge throughput (Q = 0.75 GB)",
        "Effective backhaul throughput (Gbps)",
        &library,
        &points,
        &algorithms,
        &config.monte_carlo,
    )
}

/// Ablation: sensitivity to the end-to-end latency budget `T̄_{k,i}`. The x
/// axis scales the paper's `[0.5, 1]` s budget range.
pub fn deadline_sweep(config: &RunConfig) -> Result<ExperimentTable, SimError> {
    let scales = [0.4, 0.7, 1.0, 1.5, 2.0];
    let library = config.build_library(LibraryKind::Special);
    let spec = TrimCachingSpec::new();
    let gen = TrimCachingGen::new();
    let ind = IndependentCaching::new();
    let algorithms: Vec<&(dyn PlacementAlgorithm + Sync)> = vec![&spec, &gen, &ind];
    let points: Vec<(f64, TopologyConfig)> = scales
        .iter()
        .map(|&scale| {
            let mut topo = TopologyConfig::paper_defaults().with_capacity_gb(0.75);
            let (lo, hi) = TopologyConfig::paper_defaults().demand.deadline_range_s;
            topo.demand.deadline_range_s = (lo * scale, hi * scale);
            (scale, topo)
        })
        .collect();
    sweep(
        "ablation-deadline",
        "Sensitivity to the end-to-end latency budget (scale of the paper's [0.5, 1] s range)",
        "Deadline scale factor",
        &library,
        &points,
        &algorithms,
        &config.monte_carlo,
    )
}

/// Log-normal shadowing spreads (dB) swept by [`shadowing_sweep`].
pub const SHADOWING_POINTS_DB: [f64; 5] = [0.0, 2.0, 4.0, 6.0, 8.0];

/// Ablation: placements are still decided on expected (shadowing-free)
/// rates, but the achieved hit ratio is evaluated under shadowed Rayleigh
/// channels of increasing spread — a robustness check the paper does not
/// run.
pub fn shadowing_sweep(config: &RunConfig) -> Result<ExperimentTable, SimError> {
    let library = config.build_library(LibraryKind::Special);
    let topology = TopologyConfig::paper_defaults().with_capacity_gb(0.75);
    let gen = TrimCachingGen::new();
    let ind = IndependentCaching::new();
    let algorithms: Vec<&(dyn PlacementAlgorithm + Sync)> = vec![&gen, &ind];
    let realisations = config.monte_carlo.fading_realisations.max(1);

    let mut table = ExperimentTable::new(
        "ablation-shadowing",
        "Achieved hit ratio under unmodelled log-normal shadowing (Q = 0.75 GB)",
        "Shadowing spread (dB)",
        "Cache hit ratio",
        algorithms.iter().map(|a| a.name().to_string()).collect(),
    );
    for &sigma_db in &SHADOWING_POINTS_DB {
        let fading = ShadowedRayleigh::with_sigma_db(sigma_db);
        let mut per_algorithm: Vec<Vec<f64>> = vec![Vec::new(); algorithms.len()];
        for topo_index in 0..config.monte_carlo.topologies {
            let scenario =
                topology.generate(&library, config.monte_carlo.seed, topo_index as u64)?;
            for (a, algorithm) in algorithms.iter().enumerate() {
                let placement = algorithm.place(&scenario)?.placement;
                let mut rng = StdRng::seed_from_u64(
                    config
                        .monte_carlo
                        .seed
                        .wrapping_add(topo_index as u64)
                        .wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
                );
                let hit = scenario.average_hit_ratio_under(
                    &placement,
                    &fading,
                    realisations,
                    &mut rng,
                )?;
                per_algorithm[a].push(hit);
            }
        }
        table.push_row(
            sigma_db,
            per_algorithm
                .iter()
                .map(|samples| Measurement::from_samples(samples))
                .collect(),
        );
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montecarlo::MonteCarloConfig;

    fn tiny_config() -> RunConfig {
        RunConfig {
            monte_carlo: MonteCarloConfig {
                topologies: 1,
                fading_realisations: 0,
                seed: 21,
                threads: 1,
            },
            models_per_backbone: 2,
            library_seed: 21,
        }
    }

    #[test]
    fn epsilon_sweep_has_one_row_per_epsilon() {
        let table = epsilon_sweep(&tiny_config()).unwrap();
        assert_eq!(table.rows.len(), EPSILON_POINTS.len());
        for row in &table.rows {
            assert!((0.0..=1.0).contains(&row.cells[0].mean));
            assert!(row.cells[1].mean >= 0.0);
        }
    }

    #[test]
    fn sharing_depth_sweep_shows_gen_at_or_above_independent() {
        let table = sharing_depth_sweep(&tiny_config()).unwrap();
        assert_eq!(table.rows.len(), 5);
        let gen = table.series_means("trimcaching-gen").unwrap();
        let ind = table.series_means("independent-caching").unwrap();
        for (g, i) in gen.iter().zip(&ind) {
            assert!(g >= &(i - 1e-9));
        }
    }

    #[test]
    fn zipf_sweep_and_scaling_produce_tables() {
        let zipf = zipf_sweep(&tiny_config()).unwrap();
        assert_eq!(zipf.rows.len(), 5);
        let scaling = library_scaling(&tiny_config()).unwrap();
        assert_eq!(scaling.rows.len(), 4);
        for row in &scaling.rows {
            for cell in &row.cells {
                assert!(cell.mean >= 0.0);
            }
        }
    }

    #[test]
    fn backhaul_sweep_is_monotone_for_the_sharing_aware_greedy() {
        let table = backhaul_sweep(&tiny_config()).unwrap();
        assert_eq!(table.rows.len(), BACKHAUL_POINTS_GBPS.len());
        // Faster backhaul widens the set of eligible servers; the greedy is
        // a heuristic, so we only require the overall trend (and validity).
        let gen = table.series_means("trimcaching-gen").unwrap();
        assert!(gen.iter().all(|h| (0.0..=1.0).contains(h)));
        assert!(
            gen.last().unwrap() >= &(gen[0] - 0.02),
            "backhaul sweep trend inverted: {gen:?}"
        );
    }

    #[test]
    fn deadline_sweep_trends_upward_with_the_budget() {
        let table = deadline_sweep(&tiny_config()).unwrap();
        assert_eq!(table.rows.len(), 5);
        let gen = table.series_means("trimcaching-gen").unwrap();
        assert!(gen.iter().all(|h| (0.0..=1.0).contains(h)));
        assert!(
            gen.last().unwrap() >= &(gen[0] - 0.02),
            "deadline sweep trend inverted: {gen:?}"
        );
    }

    #[test]
    fn shadowing_sweep_keeps_hit_ratios_in_range() {
        let table = shadowing_sweep(&tiny_config()).unwrap();
        assert_eq!(table.rows.len(), SHADOWING_POINTS_DB.len());
        for row in &table.rows {
            for cell in &row.cells {
                assert!((0.0..=1.0).contains(&cell.mean));
            }
        }
        // Sharing-aware placement keeps its edge over the baseline even
        // under unmodelled shadowing.
        let gen = table.series_means("trimcaching-gen").unwrap();
        let ind = table.series_means("independent-caching").unwrap();
        for (g, i) in gen.iter().zip(&ind) {
            assert!(g >= &(i - 0.05));
        }
    }
}

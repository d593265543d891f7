//! Monte-Carlo evaluation: topologies × Rayleigh fading realisations.
//!
//! The paper averages every reported point over 100 network topologies and,
//! for each topology, over more than 10³ Rayleigh channel realisations
//! (placements are decided on expected channel gains, performance is then
//! measured under fading). [`MonteCarloConfig`] captures those repetition
//! counts, and [`evaluate_algorithms`] runs a set of placement algorithms
//! over the topology ensemble in parallel worker threads.

use rand::rngs::StdRng;
use rand::SeedableRng;

use trimcaching_modellib::ModelLibrary;
use trimcaching_placement::PlacementAlgorithm;
use trimcaching_runtime::fanout::par_map;

use crate::report::Measurement;
use crate::topology::TopologyConfig;
use crate::SimError;

/// Repetition counts for the Monte-Carlo evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarloConfig {
    /// Number of random network topologies (the paper uses 100).
    pub topologies: usize,
    /// Number of Rayleigh fading realisations per topology (the paper uses
    /// over 10³). `0` evaluates on expected rates only.
    pub fading_realisations: usize,
    /// Base seed; every topology derives its own stream from it.
    pub seed: u64,
    /// Number of worker threads (0 = one per available CPU).
    pub threads: usize,
}

impl MonteCarloConfig {
    /// The paper's repetition counts (100 topologies × 1000 realisations).
    pub fn paper() -> Self {
        Self {
            topologies: 100,
            fading_realisations: 1000,
            seed: 2024,
            threads: 0,
        }
    }

    /// A reduced configuration that preserves the trends while keeping the
    /// full figure sweep runnable in minutes on a laptop.
    pub fn reduced() -> Self {
        Self {
            topologies: 15,
            fading_realisations: 100,
            seed: 2024,
            threads: 0,
        }
    }

    /// A minimal configuration for smoke tests.
    pub fn smoke() -> Self {
        Self {
            topologies: 2,
            fading_realisations: 5,
            seed: 7,
            threads: 1,
        }
    }
}

impl Default for MonteCarloConfig {
    fn default() -> Self {
        Self::reduced()
    }
}

/// Per-algorithm samples collected over the topology ensemble.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AlgorithmSamples {
    /// Algorithm name.
    pub algorithm: String,
    /// One fading-averaged cache hit ratio per topology.
    pub hit_ratios: Vec<f64>,
    /// One optimisation wall-clock time (seconds) per topology.
    pub runtimes_s: Vec<f64>,
    /// One work counter (candidate evaluations) per topology.
    pub evaluations: Vec<u64>,
}

impl AlgorithmSamples {
    /// Mean ± std of the cache hit ratio.
    pub fn hit_ratio(&self) -> Measurement {
        Measurement::from_samples(&self.hit_ratios)
    }

    /// Mean ± std of the running time in seconds.
    pub fn runtime_s(&self) -> Measurement {
        Measurement::from_samples(&self.runtimes_s)
    }
}

/// Runs every algorithm on `mc.topologies` random topologies drawn from
/// `topology`, evaluating each resulting placement over
/// `mc.fading_realisations` Rayleigh realisations.
///
/// The returned vector is indexed like `algorithms`.
///
/// # Errors
///
/// Returns the error of the lowest-numbered failing topology (for any
/// thread count), from topology generation or from an algorithm.
/// Algorithms that refuse an instance (`PlacementError::InstanceTooLarge`)
/// propagate that refusal.
pub fn evaluate_algorithms(
    library: &ModelLibrary,
    topology: &TopologyConfig,
    algorithms: &[&(dyn PlacementAlgorithm + Sync)],
    mc: &MonteCarloConfig,
) -> Result<Vec<AlgorithmSamples>, SimError> {
    if mc.topologies == 0 {
        return Err(SimError::InvalidConfig {
            reason: "at least one topology is required".into(),
        });
    }
    if algorithms.is_empty() {
        return Err(SimError::InvalidConfig {
            reason: "at least one algorithm is required".into(),
        });
    }

    // Per topology: one (hit ratio, runtime, evaluations) triple per
    // algorithm.
    let per_topology = par_map(
        &mut vec![(); mc.topologies],
        mc.threads,
        |index, _| -> Result<Vec<(f64, f64, u64)>, SimError> {
            let scenario = topology.generate(library, mc.seed, index as u64)?;
            let mut per_algorithm = Vec::with_capacity(algorithms.len());
            for algorithm in algorithms {
                let result = algorithm.place(&scenario)?;
                let mut rng = StdRng::seed_from_u64(
                    mc.seed
                        .wrapping_add(index as u64)
                        .wrapping_mul(0xA24B_AED4_963E_E407),
                );
                let hit = scenario.average_hit_ratio_under_fading(
                    &result.placement,
                    mc.fading_realisations,
                    &mut rng,
                )?;
                per_algorithm.push((hit, result.runtime.as_secs_f64(), result.evaluations));
            }
            Ok(per_algorithm)
        },
    )?;

    let mut samples: Vec<AlgorithmSamples> = algorithms
        .iter()
        .map(|a| AlgorithmSamples {
            algorithm: a.name().to_string(),
            ..Default::default()
        })
        .collect();
    for topo in per_topology {
        for (a, (hit, runtime, evals)) in topo.into_iter().enumerate() {
            samples[a].hit_ratios.push(hit);
            samples[a].runtimes_s.push(runtime);
            samples[a].evaluations.push(evals);
        }
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trimcaching_modellib::builders::SpecialCaseBuilder;
    use trimcaching_placement::{IndependentCaching, TrimCachingGen};

    fn library() -> ModelLibrary {
        SpecialCaseBuilder::paper_setup()
            .models_per_backbone(3)
            .build(1)
    }

    #[test]
    fn evaluation_produces_one_sample_per_topology() {
        let lib = library();
        let topology = TopologyConfig::paper_defaults()
            .with_servers(3)
            .with_users(8);
        let gen = TrimCachingGen::new();
        let ind = IndependentCaching::new();
        let algorithms: Vec<&(dyn PlacementAlgorithm + Sync)> = vec![&gen, &ind];
        let mc = MonteCarloConfig::smoke();
        let samples = evaluate_algorithms(&lib, &topology, &algorithms, &mc).unwrap();
        assert_eq!(samples.len(), 2);
        for s in &samples {
            assert_eq!(s.hit_ratios.len(), mc.topologies);
            assert_eq!(s.runtimes_s.len(), mc.topologies);
            assert_eq!(s.evaluations.len(), mc.topologies);
            let hit = s.hit_ratio();
            assert!((0.0..=1.0).contains(&hit.mean));
            assert!(s.runtime_s().mean >= 0.0);
        }
        assert_eq!(samples[0].algorithm, "trimcaching-gen");
        assert_eq!(samples[1].algorithm, "independent-caching");
        // Sharing-aware greedy should not lose to the baseline on average.
        assert!(samples[0].hit_ratio().mean >= samples[1].hit_ratio().mean - 1e-9);
    }

    #[test]
    fn results_are_deterministic_for_a_fixed_seed() {
        let lib = library();
        let topology = TopologyConfig::paper_defaults()
            .with_servers(2)
            .with_users(6);
        let gen = TrimCachingGen::new();
        let algorithms: Vec<&(dyn PlacementAlgorithm + Sync)> = vec![&gen];
        let mc = MonteCarloConfig {
            topologies: 3,
            fading_realisations: 10,
            seed: 99,
            threads: 2,
        };
        let a = evaluate_algorithms(&lib, &topology, &algorithms, &mc).unwrap();
        let b = evaluate_algorithms(&lib, &topology, &algorithms, &mc).unwrap();
        // Wall-clock runtimes naturally differ between runs; everything
        // derived from the random streams must be identical.
        assert_eq!(a[0].hit_ratios, b[0].hit_ratios);
        assert_eq!(a[0].evaluations, b[0].evaluations);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let lib = library();
        let topology = TopologyConfig::paper_defaults();
        let gen = TrimCachingGen::new();
        let algorithms: Vec<&(dyn PlacementAlgorithm + Sync)> = vec![&gen];
        let mc = MonteCarloConfig {
            topologies: 0,
            ..MonteCarloConfig::smoke()
        };
        assert!(evaluate_algorithms(&lib, &topology, &algorithms, &mc).is_err());
        let empty: Vec<&(dyn PlacementAlgorithm + Sync)> = vec![];
        assert!(evaluate_algorithms(&lib, &topology, &empty, &MonteCarloConfig::smoke()).is_err());
    }

    #[test]
    fn presets_have_expected_scale() {
        assert_eq!(MonteCarloConfig::paper().topologies, 100);
        assert_eq!(MonteCarloConfig::paper().fading_realisations, 1000);
        assert!(MonteCarloConfig::reduced().topologies < 100);
        assert_eq!(MonteCarloConfig::default(), MonteCarloConfig::reduced());
        assert_eq!(MonteCarloConfig::smoke().threads, 1);
    }
}

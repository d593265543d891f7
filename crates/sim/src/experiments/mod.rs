//! Experiment drivers regenerating every figure of the paper's evaluation
//! (Section VII), plus ablation studies on the reproduction's design
//! choices.
//!
//! | driver | paper artefact |
//! |--------|----------------|
//! | [`fig1::accuracy_vs_frozen_layers`] | Fig. 1 (accuracy vs frozen layers) |
//! | [`fig4::capacity_sweep`] / [`fig4::server_sweep`] / [`fig4::user_sweep`] | Fig. 4(a)–(c), special case |
//! | [`fig5::capacity_sweep`] / [`fig5::server_sweep`] / [`fig5::user_sweep`] | Fig. 5(a)–(c), general case |
//! | [`fig6::special_case_vs_optimal`] / [`fig6::general_case_runtime`] | Fig. 6(a)–(b) |
//! | [`fig7::mobility_robustness`] | Fig. 7 |
//! | [`ablation`] | ε sweep, sharing-depth sweep, Zipf sweep, scaling, backhaul, deadline, shadowing |
//! | [`serve`] | online serving via `trimcaching-runtime`: eviction policies and warm starts under live traffic |
//! | [`adapt`] | the online re-placement controller: static vs oracle replan vs controller under demand drift, and a drift-threshold sweep under user mobility (extension of Fig. 7) |
//! | [`city`] | city-scale Poisson deployments on the sparse eligibility representation |
//! | [`durable`] | durable serving via `runtime::persist`: journaled runs, checkpoint resume, A/B forks, offline journal analysis |
//! | [`faults`] | fault injection via `runtime::faults`: static vs failover-enabled serving through a deterministic outage storm |
//! | [`sharded`] | region-sharded serving via `runtime::shard`: thread-count determinism, shard-count throughput sweep, million-user acceptance |

pub mod ablation;
pub mod adapt;
pub mod city;
pub mod durable;
pub mod faults;
pub mod fig1;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod lora;
pub mod serve;
pub mod sharded;

use trimcaching_modellib::builders::{GeneralCaseBuilder, SpecialCaseBuilder};
use trimcaching_modellib::ModelLibrary;
use trimcaching_placement::PlacementAlgorithm;

use crate::montecarlo::{evaluate_algorithms, MonteCarloConfig};
use crate::report::{ExperimentTable, Measurement};
use crate::topology::TopologyConfig;
use crate::SimError;

/// Which of the paper's two parameter-sharing libraries an experiment uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LibraryKind {
    /// Special case: bottom-layer freezing from three pre-trained backbones.
    Special,
    /// General case: two-round fine-tuning per Table I.
    General,
}

/// Shared configuration of the experiment drivers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Monte-Carlo repetition counts.
    pub monte_carlo: MonteCarloConfig,
    /// Models per backbone family (the paper evaluates Figs. 4–5 with a
    /// 30-model library, i.e. 10 per backbone).
    pub models_per_backbone: usize,
    /// Seed for library construction.
    pub library_seed: u64,
}

impl RunConfig {
    /// Paper-scale repetitions (100 topologies × 1000 fading realisations).
    pub fn paper() -> Self {
        Self {
            monte_carlo: MonteCarloConfig::paper(),
            models_per_backbone: 10,
            library_seed: 2024,
        }
    }

    /// Reduced repetitions preserving the trends; the default for the CLI
    /// and the benchmarks.
    pub fn reduced() -> Self {
        Self {
            monte_carlo: MonteCarloConfig::reduced(),
            models_per_backbone: 10,
            library_seed: 2024,
        }
    }

    /// Minimal configuration for smoke tests.
    pub fn smoke() -> Self {
        Self {
            monte_carlo: MonteCarloConfig::smoke(),
            models_per_backbone: 2,
            library_seed: 7,
        }
    }

    /// Builds the library of the requested kind at this configuration's
    /// scale.
    pub fn build_library(&self, kind: LibraryKind) -> ModelLibrary {
        match kind {
            LibraryKind::Special => SpecialCaseBuilder::paper_setup()
                .models_per_backbone(self.models_per_backbone)
                .build(self.library_seed),
            LibraryKind::General => GeneralCaseBuilder::paper_setup()
                .classes_per_backbone(self.models_per_backbone)
                .build(self.library_seed),
        }
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        Self::reduced()
    }
}

/// Runs a one-dimensional sweep: for every `(x, topology)` point, evaluates
/// every algorithm over the Monte-Carlo ensemble and records the cache hit
/// ratio.
pub(crate) fn sweep(
    id: &str,
    title: &str,
    x_label: &str,
    library: &ModelLibrary,
    points: &[(f64, TopologyConfig)],
    algorithms: &[&(dyn PlacementAlgorithm + Sync)],
    mc: &MonteCarloConfig,
) -> Result<ExperimentTable, SimError> {
    let series = algorithms.iter().map(|a| a.name().to_string()).collect();
    let mut table = ExperimentTable::new(id, title, x_label, "Cache hit ratio", series);
    for (x, topology) in points {
        let samples = evaluate_algorithms(library, topology, algorithms, mc)?;
        let cells: Vec<Measurement> = samples.iter().map(|s| s.hit_ratio()).collect();
        table.push_row(*x, cells);
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_config_presets() {
        assert_eq!(RunConfig::paper().monte_carlo.topologies, 100);
        assert_eq!(RunConfig::paper().models_per_backbone, 10);
        assert!(RunConfig::smoke().monte_carlo.topologies <= 2);
        assert_eq!(RunConfig::default(), RunConfig::reduced());
    }

    #[test]
    fn libraries_are_built_at_the_requested_scale() {
        let cfg = RunConfig::smoke();
        let special = cfg.build_library(LibraryKind::Special);
        assert_eq!(special.num_models(), 6);
        let general = cfg.build_library(LibraryKind::General);
        assert_eq!(general.num_models(), 6);
        // The general-case library shares strictly more distinct blocks as
        // it scales; at equal scale both are valid parameter-sharing
        // libraries.
        assert!(special.sharing_savings_ratio() > 0.0);
        assert!(general.sharing_savings_ratio() > 0.0);
    }
}

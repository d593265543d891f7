//! TrimCaching Spec — Algorithms 1 and 2 of the paper.
//!
//! The special-case algorithm decomposes P1.1 with a *successive greedy*
//! over edge servers (Algorithm 1): servers are processed in order, each
//! solving its own sub-problem P2.1m with the requests already served by
//! earlier servers masked out (the indicator `I2` of Eq. 11). Every
//! sub-problem is solved (ε-)optimally by traversing the combinations of
//! shared parameter blocks and running the DP-based rounding knapsack of
//! Algorithm 2 for each combination.
//!
//! With each sub-problem solved optimally the overall solution is within a
//! factor `(1 − ε)/2` of the optimum (Theorem 2), and the running time is
//! polynomial as long as the number of shared-block combinations is a
//! constant independent of the library size (Theorem 1) — the defining
//! property of the special case.

mod combinations;
mod knapsack;

use std::time::Instant;

use trimcaching_modellib::ModelId;
use trimcaching_scenario::{Scenario, ServerId};

use crate::error::PlacementError;
use crate::outcome::{PlacementAlgorithm, PlacementOutcome};
use combinations::SharingAnalysis;
use knapsack::Item;

/// Default budget on the number of shared-block combinations enumerated.
pub const DEFAULT_MAX_COMBINATIONS: u128 = 1 << 22;

/// Default budget on the `2^c` union expansion within one sharing group.
pub const DEFAULT_MAX_GROUP_SUBSETS: u32 = 16;

/// Default cap on the rounded-value axis of the per-combination DP.
pub const DEFAULT_MAX_TOTAL_WEIGHT: u64 = 20_000;

/// The TrimCaching Spec algorithm (Algorithms 1 + 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrimCachingSpec {
    /// Rounding parameter ε of Algorithm 2, in `[0, 1]`. `0` selects the
    /// fine-granularity "exact" mode used for the optimality comparison of
    /// Fig. 6(a); the paper's default for the main experiments is `0.1`.
    pub epsilon: f64,
    /// Budget on the total number of shared-block combinations; exceeding
    /// it returns [`PlacementError::InstanceTooLarge`].
    pub max_combinations: u128,
    /// Budget on the per-group union expansion for non-chain sharing
    /// structures.
    pub max_group_subsets: u32,
    /// Engineering cap on the DP value axis (see
    /// [`knapsack`](self) module docs).
    pub max_total_weight: u64,
}

impl TrimCachingSpec {
    /// The paper's default configuration (`ε = 0.1`).
    pub fn new() -> Self {
        Self {
            epsilon: 0.1,
            max_combinations: DEFAULT_MAX_COMBINATIONS,
            max_group_subsets: DEFAULT_MAX_GROUP_SUBSETS,
            max_total_weight: DEFAULT_MAX_TOTAL_WEIGHT,
        }
    }

    /// Sets the rounding parameter ε.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets the combination-enumeration budget.
    pub fn with_max_combinations(mut self, budget: u128) -> Self {
        self.max_combinations = budget;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::InvalidConfig`] when ε is outside `[0, 1]`
    /// or a budget is zero.
    pub fn validate(&self) -> Result<(), PlacementError> {
        if !self.epsilon.is_finite() || !(0.0..=1.0).contains(&self.epsilon) {
            return Err(PlacementError::InvalidConfig {
                reason: format!("epsilon {} must lie in [0, 1]", self.epsilon),
            });
        }
        if self.max_combinations == 0 || self.max_total_weight == 0 {
            return Err(PlacementError::InvalidConfig {
                reason: "budgets must be positive".into(),
            });
        }
        Ok(())
    }
}

impl Default for TrimCachingSpec {
    fn default() -> Self {
        Self::new()
    }
}

impl PlacementAlgorithm for TrimCachingSpec {
    fn name(&self) -> &str {
        "trimcaching-spec"
    }

    fn place(&self, scenario: &Scenario) -> Result<PlacementOutcome, PlacementError> {
        self.validate()?;
        #[expect(
            clippy::disallowed_methods,
            reason = "measures solver wall time for PlacementOutcome reporting; never enters simulated time or traces"
        )]
        let start = Instant::now();
        let library = scenario.library();
        let analysis =
            SharingAnalysis::analyze(library, self.max_combinations, self.max_group_subsets)?;
        let objective = scenario.objective();
        let num_models = scenario.num_models();

        // Per-model specific sizes D_N(i) (Eq. 13): because every eligible
        // model has all of its shared blocks inside the combination, the
        // residual cost is exactly its specific (unshared) part.
        let specific_sizes: Vec<u64> = (0..num_models)
            .map(|i| library.specific_size_bytes(ModelId(i)))
            .collect::<Result<_, _>>()?;

        let mut placement = scenario.empty_placement();
        // The requests served by the servers already processed (the
        // complement of `I2`).
        let mut coverage = objective.empty_coverage();
        let mut evaluations = 0u64;

        // Algorithm 1: successive greedy over edge servers.
        for m in 0..scenario.num_servers() {
            let server = ServerId(m);
            let capacity = scenario.capacity_bytes(server)?;

            // u(m, i) of Eq. (14), masked by I2 via the running coverage.
            // Only the server's candidate models (those it can serve for
            // at least one user, via `EligibilityView::server_models`)
            // need a gain evaluation — every other model's weight is
            // structurally zero and stays at the default.
            let mut weights = vec![0.0f64; num_models];
            for model in objective.candidate_models(server) {
                weights[model.index()] = coverage.gain(server, model);
                evaluations += 1;
            }

            // Algorithm 2: traverse shared-block combinations, solve the
            // rounding DP for each, keep the best server-local decision.
            let mut best_value = 0.0f64;
            let mut best_models: Vec<ModelId> = Vec::new();
            for combination in analysis.combinations() {
                let d_n = combination.bytes();
                if d_n > capacity {
                    continue;
                }
                let remaining = capacity - d_n;
                let items: Vec<Item> = (0..num_models)
                    .filter(|&i| weights[i] > 0.0)
                    .filter(|&i| analysis.eligible(ModelId(i), &combination))
                    .map(|i| Item {
                        model: ModelId(i),
                        weight: weights[i],
                        cost_bytes: specific_sizes[i],
                    })
                    .collect();
                if items.is_empty() {
                    continue;
                }
                // Upper-bound prune: even taking every eligible model cannot
                // beat the incumbent.
                let upper: f64 = items.iter().map(|it| it.weight).sum();
                if upper <= best_value {
                    continue;
                }
                let solution =
                    knapsack::solve(&items, remaining, self.epsilon, self.max_total_weight);
                evaluations += solution.evaluations.max(items.len() as u64);
                if solution.value > best_value {
                    best_value = solution.value;
                    best_models = solution.chosen;
                }
            }

            for model in best_models {
                placement.place(server, model)?;
                coverage.cover(server, model);
            }
        }

        debug_assert!(scenario.satisfies_capacities(&placement));
        Ok(PlacementOutcome::new(
            self.name(),
            scenario,
            placement,
            start.elapsed(),
            evaluations,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::general::TrimCachingGen;
    use crate::independent::IndependentCaching;
    use crate::test_support::{paper_like_scenario, tiny_scenario};

    #[test]
    fn config_validation() {
        assert!(TrimCachingSpec::new().validate().is_ok());
        assert!(TrimCachingSpec::new()
            .with_epsilon(-0.1)
            .validate()
            .is_err());
        assert!(TrimCachingSpec::new().with_epsilon(1.5).validate().is_err());
        assert!(TrimCachingSpec::new()
            .with_epsilon(f64::NAN)
            .validate()
            .is_err());
        let mut cfg = TrimCachingSpec::new();
        cfg.max_total_weight = 0;
        assert!(cfg.validate().is_err());
        assert_eq!(TrimCachingSpec::default(), TrimCachingSpec::new());
        // An invalid configuration is also rejected by place().
        let scenario = tiny_scenario(6, 0.3, 1).unwrap();
        assert!(TrimCachingSpec::new()
            .with_epsilon(2.0)
            .place(&scenario)
            .is_err());
    }

    #[test]
    fn spec_produces_feasible_placements() {
        let scenario = paper_like_scenario(3, 12, 12, 0.5, 8, true).unwrap();
        let outcome = TrimCachingSpec::new().place(&scenario).unwrap();
        assert_eq!(outcome.algorithm, "trimcaching-spec");
        assert!(outcome.hit_ratio > 0.0);
        assert!(scenario.satisfies_capacities(&outcome.placement));
        assert!(outcome.evaluations > 0);
    }

    #[test]
    fn spec_matches_or_beats_gen_in_the_special_case() {
        // Fig. 4's qualitative ordering: Spec >= Gen >= Independent, up to
        // small numerical slack from the DP rounding.
        for seed in [3_u64, 4, 5] {
            let scenario = paper_like_scenario(4, 16, 15, 0.4, seed, true).unwrap();
            let spec = TrimCachingSpec::new().place(&scenario).unwrap();
            let gen = TrimCachingGen::new().place(&scenario).unwrap();
            let ind = IndependentCaching::new().place(&scenario).unwrap();
            assert!(
                spec.hit_ratio >= gen.hit_ratio - 0.03,
                "seed {seed}: spec {} << gen {}",
                spec.hit_ratio,
                gen.hit_ratio
            );
            assert!(
                spec.hit_ratio >= ind.hit_ratio - 1e-9,
                "seed {seed}: spec {} < independent {}",
                spec.hit_ratio,
                ind.hit_ratio
            );
        }
    }

    #[test]
    fn smaller_epsilon_never_hurts_much() {
        let scenario = paper_like_scenario(3, 10, 9, 0.3, 17, true).unwrap();
        let coarse = TrimCachingSpec::new()
            .with_epsilon(0.5)
            .place(&scenario)
            .unwrap();
        let fine = TrimCachingSpec::new()
            .with_epsilon(0.0)
            .place(&scenario)
            .unwrap();
        assert!(fine.hit_ratio >= coarse.hit_ratio - 1e-9);
    }

    #[test]
    fn tight_budget_is_reported_as_instance_too_large() {
        let scenario = paper_like_scenario(2, 8, 9, 0.4, 2, true).unwrap();
        let err = TrimCachingSpec::new()
            .with_max_combinations(2)
            .place(&scenario);
        assert!(matches!(err, Err(PlacementError::InstanceTooLarge { .. })));
    }

    #[test]
    fn empty_capacity_yields_empty_placement() {
        let scenario = paper_like_scenario(2, 6, 6, 0.001, 3, true).unwrap();
        let outcome = TrimCachingSpec::new().place(&scenario).unwrap();
        assert!(outcome.placement.is_empty());
        assert_eq!(outcome.hit_ratio, 0.0);
    }

    #[test]
    fn spec_handles_the_general_case_library_too() {
        // Slower (more sharing groups) but still correct on small instances.
        let scenario = paper_like_scenario(2, 8, 9, 0.4, 6, false).unwrap();
        let outcome = TrimCachingSpec::new().place(&scenario).unwrap();
        assert!(scenario.satisfies_capacities(&outcome.placement));
        let gen = TrimCachingGen::new().place(&scenario).unwrap();
        assert!(outcome.hit_ratio >= gen.hit_ratio - 0.05);
    }
}

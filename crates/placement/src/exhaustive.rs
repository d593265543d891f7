//! Exhaustive search for the optimal placement on small instances.
//!
//! The paper uses exhaustive search as the optimality reference in the
//! running-time comparison of Fig. 6(a), on a reduced scenario (400 m area,
//! `M = 2`, `K = 6`). The search enumerates, for every edge server, all
//! *maximal* feasible model subsets under the shared-storage constraint of
//! Eq. (7) — a non-maximal subset can never achieve a higher hit ratio than
//! a maximal superset, because the objective is monotone — and then picks
//! one subset per server so as to maximise `U(X)`.
//!
//! The complexity is exponential in the library size; the search refuses
//! instances whose estimated enumeration exceeds the configured budget.

use std::time::Instant;

use trimcaching_modellib::ModelId;
use trimcaching_scenario::{Scenario, ServerId, StorageTracker, UserId};

use crate::error::PlacementError;
use crate::outcome::{PlacementAlgorithm, PlacementOutcome};

/// Default budget on the number of per-server subsets times servers
/// (product over servers of subset counts).
pub const DEFAULT_MAX_ENUMERATIONS: u128 = 20_000_000;

/// Optimal placement by exhaustive enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExhaustiveSearch {
    /// Budget on the total number of placements examined (the product over
    /// servers of per-server feasible subset counts).
    pub max_enumerations: u128,
}

impl ExhaustiveSearch {
    /// Creates the search with the default budget.
    pub fn new() -> Self {
        Self {
            max_enumerations: DEFAULT_MAX_ENUMERATIONS,
        }
    }

    /// Overrides the enumeration budget.
    pub fn with_max_enumerations(mut self, budget: u128) -> Self {
        self.max_enumerations = budget;
        self
    }

    /// Enumerates every *maximal* feasible model subset for one server
    /// under shared storage.
    fn feasible_subsets(
        scenario: &Scenario,
        server: ServerId,
        subset_budget: usize,
        node_budget: usize,
    ) -> Result<Vec<Vec<ModelId>>, PlacementError> {
        let num_models = scenario.num_models();
        let mut subsets: Vec<Vec<ModelId>> = Vec::new();
        let mut tracker = scenario.storage_tracker(server)?;
        let mut current: Vec<ModelId> = Vec::new();
        let mut nodes: usize = 0;

        #[expect(
            clippy::too_many_arguments,
            reason = "the recursion threads its search state through plain arguments"
        )]
        fn recurse(
            tracker: &mut StorageTracker<'_>,
            current: &mut Vec<ModelId>,
            next: usize,
            num_models: usize,
            subsets: &mut Vec<Vec<ModelId>>,
            nodes: &mut usize,
            subset_budget: usize,
            node_budget: usize,
        ) -> Result<(), PlacementError> {
            *nodes += 1;
            if *nodes > node_budget || subsets.len() > subset_budget {
                return Err(PlacementError::InstanceTooLarge {
                    algorithm: "exhaustive-search",
                    size: (*nodes).max(subsets.len()) as u128,
                    budget: node_budget.min(subset_budget) as u128,
                });
            }
            if next == num_models {
                // Maximality: no model outside the subset still fits.
                let maximal = (0..num_models).all(|i| {
                    let model = ModelId(i);
                    tracker.contains(model) || !tracker.fits(model).unwrap_or(false)
                });
                if maximal {
                    subsets.push(current.clone());
                }
                return Ok(());
            }
            let model = ModelId(next);
            // Branch 1: include the model if it fits.
            if tracker.fits(model)? {
                tracker.add(model)?;
                current.push(model);
                recurse(
                    tracker,
                    current,
                    next + 1,
                    num_models,
                    subsets,
                    nodes,
                    subset_budget,
                    node_budget,
                )?;
                current.pop();
                tracker.remove(model)?;
            }
            // Branch 2: exclude the model.
            recurse(
                tracker,
                current,
                next + 1,
                num_models,
                subsets,
                nodes,
                subset_budget,
                node_budget,
            )
        }

        recurse(
            &mut tracker,
            &mut current,
            0,
            num_models,
            &mut subsets,
            &mut nodes,
            subset_budget,
            node_budget,
        )?;
        Ok(subsets)
    }
}

impl Default for ExhaustiveSearch {
    fn default() -> Self {
        Self::new()
    }
}

impl PlacementAlgorithm for ExhaustiveSearch {
    fn name(&self) -> &str {
        "exhaustive-search"
    }

    fn place(&self, scenario: &Scenario) -> Result<PlacementOutcome, PlacementError> {
        #[expect(
            clippy::disallowed_methods,
            reason = "measures solver wall time for PlacementOutcome reporting; never enters simulated time or traces"
        )]
        let start = Instant::now();
        let num_servers = scenario.num_servers();
        let num_users = scenario.num_users();
        let num_models = scenario.num_models();
        let objective = scenario.objective();

        // Per-server subset budget: keep the overall product within the
        // enumeration budget even in the worst case.
        let per_server_budget =
            (self.max_enumerations as f64).powf(1.0 / num_servers.max(1) as f64) as usize + 1;
        let node_budget = usize::try_from(self.max_enumerations).unwrap_or(usize::MAX);
        let subsets: Vec<Vec<Vec<ModelId>>> = (0..num_servers)
            .map(|m| Self::feasible_subsets(scenario, ServerId(m), per_server_budget, node_budget))
            .collect::<Result<_, _>>()?;

        let mut total: u128 = 1;
        for s in &subsets {
            total = total.saturating_mul(s.len().max(1) as u128);
        }
        if total > self.max_enumerations {
            return Err(PlacementError::InstanceTooLarge {
                algorithm: "exhaustive-search",
                size: total,
                budget: self.max_enumerations,
            });
        }

        // Precompute, for every server and subset, the (user, model) pairs
        // it serves, as a bitmask over K*I bits, plus the request weights.
        let weights: Vec<f64> = (0..num_users)
            .flat_map(|k| (0..num_models).map(move |i| (k, i)).collect::<Vec<_>>())
            .map(|(k, i)| objective.weight(UserId(k), ModelId(i)))
            .collect();
        let words = (num_users * num_models).div_ceil(64);
        let mut served_masks: Vec<Vec<Vec<u64>>> = Vec::with_capacity(num_servers);
        for (m, server_subsets) in subsets.iter().enumerate() {
            let mut per_subset = Vec::with_capacity(server_subsets.len());
            for subset in server_subsets {
                let mut mask = vec![0u64; words];
                for &model in subset {
                    for user in objective.eligible_users(ServerId(m), model) {
                        let bit = user.index() * num_models + model.index();
                        mask[bit / 64] |= 1 << (bit % 64);
                    }
                }
                per_subset.push(mask);
            }
            served_masks.push(per_subset);
        }

        // Depth-first product over servers, tracking the served mask.
        let mut best_value = -1.0f64;
        let mut best_choice: Vec<usize> = vec![0; num_servers];
        let mut choice: Vec<usize> = vec![0; num_servers];
        let mut evaluations: u64 = 0;

        fn mass_of(mask: &[u64], weights: &[f64]) -> f64 {
            let mut total = 0.0;
            for (w, &word) in mask.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    total += weights[w * 64 + b];
                    bits &= bits - 1;
                }
            }
            total
        }

        #[expect(
            clippy::too_many_arguments,
            reason = "the recursion threads its search state through plain arguments"
        )]
        fn search(
            server: usize,
            num_servers: usize,
            served: &[u64],
            served_masks: &[Vec<Vec<u64>>],
            weights: &[f64],
            choice: &mut Vec<usize>,
            best_value: &mut f64,
            best_choice: &mut Vec<usize>,
            evaluations: &mut u64,
        ) {
            if server == num_servers {
                *evaluations += 1;
                let value = mass_of(served, weights);
                if value > *best_value {
                    *best_value = value;
                    best_choice.clone_from(choice);
                }
                return;
            }
            for (s, mask) in served_masks[server].iter().enumerate() {
                choice[server] = s;
                let combined: Vec<u64> = served.iter().zip(mask).map(|(a, b)| a | b).collect();
                search(
                    server + 1,
                    num_servers,
                    &combined,
                    served_masks,
                    weights,
                    choice,
                    best_value,
                    best_choice,
                    evaluations,
                );
            }
        }

        search(
            0,
            num_servers,
            &vec![0u64; words],
            &served_masks,
            &weights,
            &mut choice,
            &mut best_value,
            &mut best_choice,
            &mut evaluations,
        );

        let mut placement = scenario.empty_placement();
        for (m, &s) in best_choice.iter().enumerate() {
            if let Some(subset) = subsets[m].get(s) {
                for &model in subset {
                    placement.place(ServerId(m), model)?;
                }
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
    use crate::spec::TrimCachingSpec;
    use crate::test_support::tiny_scenario;

    #[test]
    fn exhaustive_is_at_least_as_good_as_every_heuristic() {
        for seed in [1_u64, 2, 3] {
            let scenario = tiny_scenario(6, 0.15, seed).unwrap();
            let optimal = ExhaustiveSearch::new().place(&scenario).unwrap();
            assert!(scenario.satisfies_capacities(&optimal.placement));
            for heuristic in [
                TrimCachingSpec::new()
                    .with_epsilon(0.0)
                    .place(&scenario)
                    .unwrap(),
                TrimCachingGen::new().place(&scenario).unwrap(),
                IndependentCaching::new().place(&scenario).unwrap(),
            ] {
                assert!(
                    optimal.hit_ratio >= heuristic.hit_ratio - 1e-9,
                    "seed {seed}: optimal {} < {} {}",
                    optimal.hit_ratio,
                    heuristic.algorithm,
                    heuristic.hit_ratio
                );
            }
        }
    }

    #[test]
    fn spec_with_exact_rounding_matches_the_optimum_closely() {
        // The paper reports that TrimCaching Spec achieves the same cache
        // hit ratio as the optimal solution in the Fig. 6(a) setting, and
        // its guarantee is a 1/2 factor in the worst case. Verify both the
        // guarantee and the "close to optimal" observation.
        let mut ratios = Vec::new();
        for seed in [5_u64, 6, 7, 8] {
            let scenario = tiny_scenario(6, 0.15, seed).unwrap();
            let optimal = ExhaustiveSearch::new().place(&scenario).unwrap();
            let spec = TrimCachingSpec::new()
                .with_epsilon(0.0)
                .place(&scenario)
                .unwrap();
            if optimal.hit_ratio > 0.0 {
                let ratio = spec.hit_ratio / optimal.hit_ratio;
                assert!(
                    ratio >= 0.5 - 1e-9,
                    "seed {seed}: Spec fell below the 1/2 guarantee ({ratio})"
                );
                ratios.push(ratio);
            }
        }
        let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!(
            avg > 0.9,
            "Spec should be near-optimal on average, got {avg}"
        );
    }

    #[test]
    fn enumeration_budget_is_enforced() {
        let scenario = tiny_scenario(9, 1.0, 4).unwrap();
        let err = ExhaustiveSearch::new()
            .with_max_enumerations(2)
            .place(&scenario);
        assert!(matches!(err, Err(PlacementError::InstanceTooLarge { .. })));
    }

    #[test]
    fn heuristics_are_much_faster_than_exhaustive_search() {
        let scenario = tiny_scenario(9, 0.2, 9).unwrap();
        let optimal = ExhaustiveSearch::new().place(&scenario).unwrap();
        let gen = TrimCachingGen::new().place(&scenario).unwrap();
        // Work measured in candidate evaluations: the greedy performs far
        // fewer than the exhaustive enumeration examines placements.
        assert!(
            optimal.evaluations > 2 * gen.evaluations,
            "exhaustive {} vs gen {}",
            optimal.evaluations,
            gen.evaluations
        );
    }
}

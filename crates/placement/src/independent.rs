//! The Independent Caching baseline.
//!
//! This is the state-of-the-art content-placement strategy the paper
//! compares against (Section VII-A, "Independent Caching"): models are
//! treated as opaque files, so a server caching several models pays the sum
//! of their full sizes — shared parameter blocks are stored once *per
//! model* rather than once per server. The placement itself is the
//! standard greedy for submodular maximisation under knapsack constraints
//! (Femtocaching-style), picking at each step the `(server, model)` pair
//! with the largest marginal hit-ratio gain that still fits.

use std::time::Instant;

use crate::error::PlacementError;
use crate::greedy::{greedy_place, StorageRule};
use crate::outcome::{PlacementAlgorithm, PlacementOutcome};
use trimcaching_scenario::Scenario;

/// Sharing-oblivious greedy content placement.
#[derive(Debug, Clone, Copy, Default)]
pub struct IndependentCaching;

impl IndependentCaching {
    /// Creates the baseline algorithm.
    pub fn new() -> Self {
        Self
    }
}

impl PlacementAlgorithm for IndependentCaching {
    fn name(&self) -> &str {
        "independent-caching"
    }

    fn place(&self, scenario: &Scenario) -> Result<PlacementOutcome, PlacementError> {
        #[expect(
            clippy::disallowed_methods,
            reason = "measures solver wall time for PlacementOutcome reporting; never enters simulated time or traces"
        )]
        let start = Instant::now();
        let (placement, evaluations) = greedy_place(scenario, StorageRule::Independent)?;
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
    use crate::test_support::paper_like_scenario;
    use trimcaching_scenario::ServerId;

    #[test]
    fn baseline_produces_feasible_nonempty_placements() {
        let scenario = paper_like_scenario(3, 12, 12, 0.6, 2, true).unwrap();
        let outcome = IndependentCaching::new().place(&scenario).unwrap();
        assert_eq!(outcome.algorithm, "independent-caching");
        assert!(outcome.hit_ratio > 0.0);
        assert!(!outcome.placement.is_empty());
        // Capacity holds under the baseline's own (naive) accounting.
        for m in 0..scenario.num_servers() {
            let models = outcome.placement.models_on(ServerId(m)).unwrap();
            let naive: u64 = models
                .iter()
                .map(|i| scenario.library().model_size_bytes(*i).unwrap())
                .sum();
            assert!(naive <= scenario.capacity_bytes(ServerId(m)).unwrap());
        }
    }

    #[test]
    fn tiny_capacity_yields_empty_placement() {
        // 1 MB servers cannot hold any ~50 MB model.
        let scenario = paper_like_scenario(2, 6, 6, 0.001, 3, true).unwrap();
        let outcome = IndependentCaching::new().place(&scenario).unwrap();
        assert!(outcome.placement.is_empty());
        assert_eq!(outcome.hit_ratio, 0.0);
    }

    #[test]
    fn hit_ratio_is_monotone_in_capacity() {
        let small = paper_like_scenario(3, 12, 12, 0.3, 9, true).unwrap();
        let large = paper_like_scenario(3, 12, 12, 1.2, 9, true).unwrap();
        let alg = IndependentCaching::new();
        let u_small = alg.place(&small).unwrap().hit_ratio;
        let u_large = alg.place(&large).unwrap().hit_ratio;
        assert!(
            u_large >= u_small - 1e-12,
            "more capacity cannot hurt the greedy baseline ({u_large} < {u_small})"
        );
    }
}

//! TrimCaching Gen — Algorithm 3 of the paper.
//!
//! The general-case greedy: at every step `l`, among all `(server, model)`
//! pairs whose addition keeps the server within its *shared-storage*
//! capacity `g_m(X_m ∪ {x_{m,i}}) ≤ Q_m`, pick the pair with the largest
//! increase of the cache hit ratio `U(X^{l-1} ∪ {x_{m,i}}) − U(X^{l-1})`,
//! and repeat until no server can cache any further model.
//!
//! Theorem 3 gives the data-dependent guarantee `U(X) ≥ U(X*) / Γ` with
//! `Γ = max{|X| : g_m(X_m) ≤ Q_m ∀m}`; there is no constant-factor
//! guarantee in general (Proposition 2), but the algorithm is effective in
//! practice and runs in `O(M·I)` greedy steps.

use std::time::Instant;

use crate::error::PlacementError;
use crate::greedy::{greedy_place, StorageRule};
use crate::outcome::{PlacementAlgorithm, PlacementOutcome};
use trimcaching_scenario::Scenario;

/// The TrimCaching Gen greedy algorithm (Algorithm 3).
#[derive(Debug, Clone, Copy, Default)]
pub struct TrimCachingGen;

impl TrimCachingGen {
    /// Creates the algorithm.
    pub fn new() -> Self {
        Self
    }
}

impl PlacementAlgorithm for TrimCachingGen {
    fn name(&self) -> &str {
        "trimcaching-gen"
    }

    fn place(&self, scenario: &Scenario) -> Result<PlacementOutcome, PlacementError> {
        #[expect(
            clippy::disallowed_methods,
            reason = "measures solver wall time for PlacementOutcome reporting; never enters simulated time or traces"
        )]
        let start = Instant::now();
        let (placement, evaluations) = greedy_place(scenario, StorageRule::Shared)?;
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
    use crate::independent::IndependentCaching;
    use crate::test_support::paper_like_scenario;

    #[test]
    fn gen_produces_feasible_placements_under_shared_storage() {
        let scenario = paper_like_scenario(3, 12, 12, 0.5, 4, true).unwrap();
        let outcome = TrimCachingGen::new().place(&scenario).unwrap();
        assert_eq!(outcome.algorithm, "trimcaching-gen");
        assert!(outcome.hit_ratio > 0.0);
        assert!(scenario.satisfies_capacities(&outcome.placement));
        assert!(outcome.evaluations > 0);
    }

    #[test]
    fn gen_beats_or_matches_independent_caching_special_case() {
        // The headline qualitative claim of Figs. 4-5: exploiting shared
        // parameters never hurts and typically helps.
        for seed in [1_u64, 2, 3] {
            let scenario = paper_like_scenario(4, 15, 15, 0.5, seed, true).unwrap();
            let gen = TrimCachingGen::new().place(&scenario).unwrap();
            let ind = IndependentCaching::new().place(&scenario).unwrap();
            assert!(
                gen.hit_ratio >= ind.hit_ratio - 1e-9,
                "seed {seed}: gen {} < independent {}",
                gen.hit_ratio,
                ind.hit_ratio
            );
        }
    }

    #[test]
    fn gen_beats_or_matches_independent_caching_general_case() {
        for seed in [11_u64, 12] {
            let scenario = paper_like_scenario(4, 15, 15, 0.5, seed, false).unwrap();
            let gen = TrimCachingGen::new().place(&scenario).unwrap();
            let ind = IndependentCaching::new().place(&scenario).unwrap();
            assert!(
                gen.hit_ratio >= ind.hit_ratio - 1e-9,
                "seed {seed}: gen {} < independent {}",
                gen.hit_ratio,
                ind.hit_ratio
            );
        }
    }

    #[test]
    fn hit_ratio_is_monotone_in_capacity() {
        let alg = TrimCachingGen::new();
        let small = paper_like_scenario(3, 12, 12, 0.3, 21, true).unwrap();
        let large = paper_like_scenario(3, 12, 12, 1.5, 21, true).unwrap();
        let u_small = alg.place(&small).unwrap().hit_ratio;
        let u_large = alg.place(&large).unwrap().hit_ratio;
        assert!(u_large >= u_small - 1e-12);
    }

    #[test]
    fn zero_feasible_additions_terminate_immediately() {
        let scenario = paper_like_scenario(2, 6, 6, 0.001, 5, true).unwrap();
        let outcome = TrimCachingGen::new().place(&scenario).unwrap();
        assert!(outcome.placement.is_empty());
        assert_eq!(outcome.hit_ratio, 0.0);
    }
}

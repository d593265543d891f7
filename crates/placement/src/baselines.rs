//! Simple placement baselines beyond the paper's Independent Caching.
//!
//! Content-caching papers routinely compare against two more primitive
//! strategies, and both are useful reference points when interpreting the
//! TrimCaching results:
//!
//! * [`TopPopularity`] — "cache the most popular items everywhere": every
//!   server greedily caches models in order of their aggregate request
//!   probability `Σ_k p_{k,i}`, ignoring coverage, latency budgets and what
//!   the other servers already cache. Storage is still accounted with
//!   sharing (Eq. 7), so the gap to [`crate::TrimCachingGen`] isolates the
//!   value of latency/coverage-aware marginal gains rather than of storage
//!   deduplication.
//! * [`RandomPlacement`] — a feasibility-respecting random packing, the
//!   weakest sensible baseline and a useful sanity floor in benchmarks.
//!
//! Both algorithms implement [`PlacementAlgorithm`] and always return
//! placements that satisfy the shared-storage capacity constraint (6b).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use trimcaching_modellib::ModelId;
use trimcaching_scenario::{Scenario, ServerId, StorageTracker, UserId};

use crate::error::PlacementError;
use crate::outcome::{PlacementAlgorithm, PlacementOutcome};

/// Popularity-only placement: each server caches models in decreasing order
/// of aggregate request probability until its (shared-storage) capacity is
/// exhausted.
#[derive(Debug, Clone, Copy, Default)]
pub struct TopPopularity;

impl TopPopularity {
    /// Creates the baseline.
    pub fn new() -> Self {
        Self
    }
}

impl PlacementAlgorithm for TopPopularity {
    fn name(&self) -> &str {
        "top-popularity"
    }

    fn place(&self, scenario: &Scenario) -> Result<PlacementOutcome, PlacementError> {
        #[expect(
            clippy::disallowed_methods,
            reason = "measures solver wall time for PlacementOutcome reporting; never enters simulated time or traces"
        )]
        let start = Instant::now();
        let demand = scenario.demand();
        let num_models = scenario.num_models();
        let num_users = scenario.num_users();

        // Aggregate popularity Σ_k p_{k,i} per model.
        let mut popularity: Vec<(ModelId, f64)> = (0..num_models)
            .map(|i| {
                let model = ModelId(i);
                let mass: f64 = (0..num_users)
                    .map(|k| demand.probability(UserId(k), model).unwrap_or(0.0))
                    .sum();
                (model, mass)
            })
            .collect();
        // Highest mass first; ties by model index for determinism.
        popularity.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });

        let mut placement = scenario.empty_placement();
        let mut evaluations = 0u64;
        for m in 0..scenario.num_servers() {
            let mut tracker: StorageTracker<'_> = scenario.storage_tracker(ServerId(m))?;
            for &(model, mass) in &popularity {
                evaluations += 1;
                if mass <= 0.0 {
                    break;
                }
                if tracker.fits(model)? {
                    tracker.add(model)?;
                    placement.place(ServerId(m), model)?;
                }
            }
        }

        Ok(PlacementOutcome::new(
            self.name(),
            scenario,
            placement,
            start.elapsed(),
            evaluations,
        ))
    }
}

/// Random feasible placement under shared-storage accounting.
///
/// Candidate `(server, model)` pairs are visited in a seeded random order
/// and added whenever they still fit. Used as a sanity floor in the
/// evaluation and in benchmarks.
#[derive(Debug, Clone, Copy)]
pub struct RandomPlacement {
    seed: u64,
}

impl RandomPlacement {
    /// Creates the baseline with the given PRNG seed (the same seed always
    /// produces the same placement on the same scenario).
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// The seed used for the random visiting order.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

impl Default for RandomPlacement {
    fn default() -> Self {
        Self::new(0)
    }
}

impl PlacementAlgorithm for RandomPlacement {
    fn name(&self) -> &str {
        "random-placement"
    }

    fn place(&self, scenario: &Scenario) -> Result<PlacementOutcome, PlacementError> {
        #[expect(
            clippy::disallowed_methods,
            reason = "measures solver wall time for PlacementOutcome reporting; never enters simulated time or traces"
        )]
        let start = Instant::now();
        let num_servers = scenario.num_servers();
        let num_models = scenario.num_models();
        let mut pairs: Vec<(usize, usize)> = (0..num_servers)
            .flat_map(|m| (0..num_models).map(move |i| (m, i)))
            .collect();
        let mut rng = StdRng::seed_from_u64(self.seed);
        pairs.shuffle(&mut rng);

        let mut placement = scenario.empty_placement();
        let mut trackers: Vec<StorageTracker<'_>> = (0..num_servers)
            .map(|m| scenario.storage_tracker(ServerId(m)))
            .collect::<Result<_, _>>()?;
        let mut evaluations = 0u64;
        for (m, i) in pairs {
            evaluations += 1;
            let model = ModelId(i);
            if trackers[m].fits(model)? {
                trackers[m].add(model)?;
                placement.place(ServerId(m), model)?;
            }
        }

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
    use crate::test_support::paper_like_scenario;

    #[test]
    fn top_popularity_is_feasible_and_nonempty() {
        let scenario = paper_like_scenario(3, 12, 12, 0.6, 2, true).unwrap();
        let outcome = TopPopularity::new().place(&scenario).unwrap();
        assert_eq!(outcome.algorithm, "top-popularity");
        assert!(!outcome.placement.is_empty());
        assert!(scenario.satisfies_capacities(&outcome.placement));
        assert!((0.0..=1.0).contains(&outcome.hit_ratio));
    }

    #[test]
    fn random_placement_is_feasible_and_deterministic_per_seed() {
        let scenario = paper_like_scenario(3, 12, 12, 0.6, 5, true).unwrap();
        let a = RandomPlacement::new(42).place(&scenario).unwrap();
        let b = RandomPlacement::new(42).place(&scenario).unwrap();
        assert_eq!(a.placement, b.placement);
        assert!(scenario.satisfies_capacities(&a.placement));
        let c = RandomPlacement::new(43).place(&scenario).unwrap();
        // A different seed is allowed to coincide but almost never does on
        // this instance size.
        assert!(c.placement != a.placement || c.hit_ratio == a.hit_ratio);
        assert_eq!(RandomPlacement::default().seed(), 0);
    }

    #[test]
    fn greedy_dominates_both_baselines() {
        for seed in [1_u64, 3, 8] {
            let scenario = paper_like_scenario(4, 15, 15, 0.5, seed, true).unwrap();
            let gen = TrimCachingGen::new().place(&scenario).unwrap();
            let pop = TopPopularity::new().place(&scenario).unwrap();
            let rnd = RandomPlacement::new(seed).place(&scenario).unwrap();
            assert!(
                gen.hit_ratio >= pop.hit_ratio - 1e-9,
                "seed {seed}: gen {} < popularity {}",
                gen.hit_ratio,
                pop.hit_ratio
            );
            assert!(
                gen.hit_ratio >= rnd.hit_ratio - 1e-9,
                "seed {seed}: gen {} < random {}",
                gen.hit_ratio,
                rnd.hit_ratio
            );
        }
    }

    #[test]
    fn every_server_caches_the_same_top_models_under_popularity() {
        // With identical capacities the popularity baseline replicates the
        // same prefix of the popularity ranking on every server.
        let scenario = paper_like_scenario(3, 12, 12, 0.6, 7, true).unwrap();
        let outcome = TopPopularity::new().place(&scenario).unwrap();
        let first = outcome.placement.models_on(ServerId(0)).unwrap();
        for m in 1..scenario.num_servers() {
            assert_eq!(outcome.placement.models_on(ServerId(m)).unwrap(), first);
        }
    }

    #[test]
    fn tiny_capacity_yields_empty_placements() {
        let scenario = paper_like_scenario(2, 6, 6, 0.001, 9, true).unwrap();
        assert!(TopPopularity::new()
            .place(&scenario)
            .unwrap()
            .placement
            .is_empty());
        assert!(RandomPlacement::new(1)
            .place(&scenario)
            .unwrap()
            .placement
            .is_empty());
    }
}

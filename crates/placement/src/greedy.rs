//! Shared greedy engine used by TrimCaching Gen and the Independent
//! Caching baseline.
//!
//! Both algorithms repeatedly add the `(server, model)` pair with the
//! largest marginal increase of the expected cache hit ratio, subject to a
//! per-server storage budget; the only difference is the storage accounting
//! rule:
//!
//! * TrimCaching Gen charges the *deduplicated* (shared) bytes of Eq. (7);
//! * Independent Caching charges every model its full size `D_i`,
//!   exactly like a sharing-oblivious content cache would.
//!
//! Gains come from one served-set
//! [`Coverage`](trimcaching_scenario::Coverage) per solve: an evaluation
//! costs `⌈K/64⌉` word ANDs on the dense tensor (one bit test per
//! eligible user on the sparse one) with no `M` factor, bit-identical to
//! the pointwise
//! [`marginal_hits`](trimcaching_scenario::HitRatioObjective::marginal_hits).

use trimcaching_modellib::ModelId;
use trimcaching_scenario::{Placement, Scenario, ServerId, StorageTracker};

use crate::error::PlacementError;

/// Storage accounting rule used by the greedy engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StorageRule {
    /// Deduplicated (parameter-sharing) storage — Eq. (7).
    Shared,
    /// Full-model-size storage, ignoring shared blocks.
    Independent,
}

/// Runs the greedy loop and returns the placement together with the number
/// of marginal-gain evaluations performed.
pub(crate) fn greedy_place(
    scenario: &Scenario,
    rule: StorageRule,
) -> Result<(Placement, u64), PlacementError> {
    let objective = scenario.objective();
    let num_servers = scenario.num_servers();
    let library = scenario.library();

    let mut placement = scenario.empty_placement();
    let mut coverage = objective.empty_coverage();
    let mut trackers: Vec<StorageTracker<'_>> = (0..num_servers)
        .map(|m| scenario.storage_tracker(ServerId(m)))
        .collect::<Result<_, _>>()?;
    // Independent accounting keeps its own byte counters per server.
    let mut independent_used: Vec<u64> = vec![0; num_servers];
    let mut evaluations: u64 = 0;

    loop {
        let mut best: Option<(usize, usize, f64)> = None;
        for m in 0..num_servers {
            let capacity = scenario.capacity_bytes(ServerId(m))?;
            // Only models some user can receive from `m` within deadline
            // can ever have positive gain; everything else is skipped
            // without a marginal-gain evaluation.
            for model in objective.candidate_models(ServerId(m)) {
                let i = model.index();
                if placement.contains(ServerId(m), model) {
                    continue;
                }
                // Capacity feasibility under the configured accounting rule.
                let fits = match rule {
                    StorageRule::Shared => trackers[m].fits(model)?,
                    StorageRule::Independent => {
                        let size = library.model_size_bytes(model)?;
                        independent_used[m] + size <= capacity
                    }
                };
                if !fits {
                    continue;
                }
                evaluations += 1;
                let gain = coverage.gain(ServerId(m), model);
                if gain <= 0.0 {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some((_, _, g)) => gain > g,
                };
                if better {
                    best = Some((m, i, gain));
                }
            }
        }
        match best {
            Some((m, i, _gain)) => {
                let model = ModelId(i);
                placement.place(ServerId(m), model)?;
                coverage.cover(ServerId(m), model);
                trackers[m].add(model)?;
                independent_used[m] += library.model_size_bytes(model)?;
            }
            None => break,
        }
    }
    Ok((placement, evaluations))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::paper_like_scenario;

    #[test]
    fn shared_rule_packs_at_least_as_many_models_as_independent() {
        let scenario = paper_like_scenario(3, 10, 12, 0.4, 101, true).unwrap();
        let (shared, _) = greedy_place(&scenario, StorageRule::Shared).unwrap();
        let (independent, _) = greedy_place(&scenario, StorageRule::Independent).unwrap();
        assert!(
            shared.len() >= independent.len(),
            "sharing-aware greedy should never cache fewer models ({} vs {})",
            shared.len(),
            independent.len()
        );
        assert!(scenario.hit_ratio(&shared) >= scenario.hit_ratio(&independent) - 1e-12);
    }

    #[test]
    fn both_rules_respect_their_capacity_accounting() {
        let scenario = paper_like_scenario(3, 10, 12, 0.4, 7, true).unwrap();
        let (shared, _) = greedy_place(&scenario, StorageRule::Shared).unwrap();
        assert!(scenario.satisfies_capacities(&shared));
        let (independent, _) = greedy_place(&scenario, StorageRule::Independent).unwrap();
        // The independent placement satisfies the *stricter* naive budget,
        // which implies the shared budget as well.
        for m in 0..scenario.num_servers() {
            let models = independent.models_on(ServerId(m)).unwrap();
            let naive: u64 = models
                .iter()
                .map(|i| scenario.library().model_size_bytes(*i).unwrap())
                .sum();
            assert!(naive <= scenario.capacity_bytes(ServerId(m)).unwrap());
        }
        assert!(scenario.satisfies_capacities(&independent));
    }

    #[test]
    fn greedy_counts_evaluations() {
        let scenario = paper_like_scenario(2, 6, 9, 0.5, 3, true).unwrap();
        let (_, evals) = greedy_place(&scenario, StorageRule::Shared).unwrap();
        assert!(evals > 0);
    }
}

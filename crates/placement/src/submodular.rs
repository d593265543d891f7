//! Empirical submodularity checkers for the structural results of
//! Section IV-B (Proposition 1).
//!
//! Proposition 1 states that the objective `U(X)` is a monotone submodular
//! set function of the placed `(server, model)` pairs and that each storage
//! constraint `g_m` is a submodular function of the models placed on server
//! `m`. These checkers sample random chains `S ⊆ T` and a random extra
//! element `x ∉ T` and verify the diminishing-returns inequality
//! `f(S ∪ {x}) − f(S) ≥ f(T ∪ {x}) − f(T)`. They are used by the test
//! suite (including property-based tests) and by downstream experiments
//! that want to sanity-check custom scenario constructions.

use rand::seq::SliceRandom;
use rand::Rng;

use trimcaching_modellib::ModelId;
use trimcaching_scenario::{Placement, Scenario, ServerId};

/// Outcome of a sampling-based submodularity check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubmodularityReport {
    /// Number of sampled `(S, T, x)` triples.
    pub samples: usize,
    /// Number of triples violating the diminishing-returns inequality by
    /// more than the numerical tolerance.
    pub violations: usize,
    /// Largest observed violation magnitude.
    pub worst_violation: f64,
}

impl SubmodularityReport {
    /// Whether no violations were observed.
    pub fn holds(&self) -> bool {
        self.violations == 0
    }
}

const TOLERANCE: f64 = 1e-9;

/// Checks the submodularity (diminishing returns) of the hit-ratio
/// objective over `(server, model)` ground elements.
pub fn check_objective_submodularity<R: Rng + ?Sized>(
    scenario: &Scenario,
    samples: usize,
    rng: &mut R,
) -> SubmodularityReport {
    let objective = scenario.objective();
    let ground: Vec<(ServerId, ModelId)> = (0..scenario.num_servers())
        .flat_map(|m| (0..scenario.num_models()).map(move |i| (ServerId(m), ModelId(i))))
        .collect();
    let mut violations = 0usize;
    let mut worst: f64 = 0.0;
    for _ in 0..samples {
        // Random chain S ⊆ T plus an element x outside T.
        let mut shuffled = ground.clone();
        shuffled.shuffle(rng);
        if shuffled.len() < 2 {
            break;
        }
        let Some(x) = shuffled.pop() else {
            break;
        };
        let t_len = rng.gen_range(0..=shuffled.len());
        let s_len = rng.gen_range(0..=t_len);
        let mut small = Placement::empty(scenario.num_servers(), scenario.num_models());
        let mut large = Placement::empty(scenario.num_servers(), scenario.num_models());
        for (idx, (srv, model)) in shuffled.iter().take(t_len).enumerate() {
            let Ok(_) = large.place(*srv, *model) else {
                continue;
            };
            if idx < s_len {
                let Ok(_) = small.place(*srv, *model) else {
                    continue;
                };
            }
        }
        let gain_small = objective.marginal_hits(&small, x.0, x.1);
        let gain_large = objective.marginal_hits(&large, x.0, x.1);
        let violation = gain_large - gain_small;
        if violation > TOLERANCE {
            violations += 1;
            worst = worst.max(violation);
        }
    }
    SubmodularityReport {
        samples,
        violations,
        worst_violation: worst,
    }
}

/// Checks the submodularity of the per-server storage function `g_m`
/// (Eq. 7) over models.
pub fn check_storage_submodularity<R: Rng + ?Sized>(
    scenario: &Scenario,
    samples: usize,
    rng: &mut R,
) -> SubmodularityReport {
    let library = scenario.library();
    let models: Vec<ModelId> = library.model_ids().collect();
    let mut violations = 0usize;
    let mut worst: f64 = 0.0;
    for _ in 0..samples {
        let mut shuffled = models.clone();
        shuffled.shuffle(rng);
        if shuffled.len() < 2 {
            break;
        }
        let Some(x) = shuffled.pop() else {
            break;
        };
        let t_len = rng.gen_range(0..=shuffled.len());
        let s_len = rng.gen_range(0..=t_len);
        let small: Vec<ModelId> = shuffled.iter().take(s_len).copied().collect();
        let large: Vec<ModelId> = shuffled.iter().take(t_len).copied().collect();
        let g = |set: &[ModelId]| library.union_size_bytes(set.iter().copied()) as f64;
        let with = |set: &[ModelId], extra: ModelId| {
            let mut v = set.to_vec();
            v.push(extra);
            library.union_size_bytes(v) as f64
        };
        let gain_small = with(&small, x) - g(&small);
        let gain_large = with(&large, x) - g(&large);
        let violation = gain_large - gain_small;
        if violation > TOLERANCE {
            violations += 1;
            worst = worst.max(violation);
        }
    }
    SubmodularityReport {
        samples,
        violations,
        worst_violation: worst,
    }
}

/// Checks the monotonicity of the hit-ratio objective: adding a placement
/// never decreases `U`.
pub fn check_objective_monotonicity<R: Rng + ?Sized>(
    scenario: &Scenario,
    samples: usize,
    rng: &mut R,
) -> SubmodularityReport {
    let objective = scenario.objective();
    let mut violations = 0usize;
    let mut worst: f64 = 0.0;
    for _ in 0..samples {
        let mut placement = Placement::empty(scenario.num_servers(), scenario.num_models());
        let mut last = 0.0;
        for _ in 0..rng.gen_range(1..8usize) {
            let m = ServerId(rng.gen_range(0..scenario.num_servers()));
            let i = ModelId(rng.gen_range(0..scenario.num_models()));
            let Ok(_) = placement.place(m, i) else {
                continue;
            };
            let u = objective.hit_ratio(&placement);
            if u < last - TOLERANCE {
                violations += 1;
                worst = worst.max(last - u);
            }
            last = u;
        }
    }
    SubmodularityReport {
        samples,
        violations,
        worst_violation: worst,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::paper_like_scenario;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn objective_is_submodular_on_paper_like_scenarios() {
        let scenario = paper_like_scenario(3, 10, 9, 0.5, 31, true).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let report = check_objective_submodularity(&scenario, 200, &mut rng);
        assert!(report.holds(), "violations: {report:?}");
        assert_eq!(report.samples, 200);
    }

    #[test]
    fn storage_is_submodular_on_both_library_kinds() {
        let mut rng = StdRng::seed_from_u64(2);
        for special in [true, false] {
            let scenario = paper_like_scenario(2, 6, 12, 0.5, 33, special).unwrap();
            let report = check_storage_submodularity(&scenario, 200, &mut rng);
            assert!(report.holds(), "special={special}: {report:?}");
        }
    }

    #[test]
    fn objective_is_monotone() {
        let scenario = paper_like_scenario(3, 10, 9, 0.5, 35, true).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let report = check_objective_monotonicity(&scenario, 100, &mut rng);
        assert!(report.holds(), "violations: {report:?}");
    }
}

//! Lazy-evaluation (CELF-style) acceleration of TrimCaching Gen.
//!
//! Algorithm 3 recomputes the marginal hit-ratio gain of *every* remaining
//! `(server, model)` pair in every greedy step, which costs `O(M·I)` gain
//! evaluations per step and `O((M·I)²)` overall. Because the objective
//! `U(X)` of Eq. (2) is submodular (Proposition 1), the marginal gain of a
//! pair can only shrink as the placement grows; stale gains are therefore
//! valid *upper bounds*. [`TrimCachingGenLazy`] exploits this with the
//! classic CELF ("cost-effective lazy forward") priority queue: gains are
//! only recomputed for pairs that float to the top of the queue, and a pair
//! whose refreshed gain still dominates the rest of the queue is selected
//! without touching the other candidates.
//!
//! The produced placement is identical to [`crate::TrimCachingGen`] (ties
//! are broken the same way: larger gain first, then smaller server index,
//! then smaller model index) while typically performing an order of
//! magnitude fewer marginal-gain evaluations — the difference is visible in
//! the [`PlacementOutcome::evaluations`] counter and in the
//! `lazy_greedy_scaling` benchmark.
//!
//! Every gain evaluation reads the solve's served-set
//! [`Coverage`](trimcaching_scenario::Coverage), with no `M` factor. On
//! the dense tensor it ANDs the `(m, i)` cell's user bitset with the
//! complement of model `i`'s covered bits, `⌈K/64⌉` words, and adds one
//! weight per user left set. On the sparse representation it makes one
//! bit test per user of the reverse row. Either way it returns the same
//! bits as the pointwise [`HitRatioObjective::marginal_hits`]. On the
//! drift-churn deployment (3 000 users, 30 models, 47 words per cell) a
//! gain is under 50 word operations plus the adds.
//!
//! One subtlety of the parameter-sharing storage constraint (Eq. 7): a pair
//! that does not fit *now* can become feasible later, because placing a
//! sibling model pays for the shared blocks and shrinks the pair's marginal
//! byte cost. Candidates that fail the capacity check are therefore only
//! set aside for the current selection step, never discarded.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Instant;

use trimcaching_modellib::ModelId;
use trimcaching_scenario::{
    DemandView, EligibilityView, HitRatioObjective, Scenario, ServerId, StorageTracker,
};

use crate::error::PlacementError;
use crate::outcome::{PlacementAlgorithm, PlacementOutcome};

/// A candidate `(server, model)` pair with a (possibly stale) gain bound.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Candidate {
    /// Upper bound on the marginal expected-hit gain.
    gain: f64,
    /// Server index `m`.
    server: usize,
    /// Model index `i`.
    model: usize,
    /// Greedy step at which `gain` was last recomputed.
    round: u64,
}

impl Eq for Candidate {}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on gain; ties prefer the smaller (server, model) pair so
        // the selection order matches the eager greedy's first-strictly-
        // greater scan over servers (outer) and models (inner).
        self.gain
            .partial_cmp(&other.gain)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.server.cmp(&self.server))
            .then_with(|| other.model.cmp(&self.model))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// CELF-accelerated variant of the TrimCaching Gen greedy (Algorithm 3).
///
/// Produces the same placement as [`crate::TrimCachingGen`] with far fewer
/// marginal-gain evaluations on realistic problem sizes.
///
/// # Example
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use trimcaching_modellib::builders::SpecialCaseBuilder;
/// use trimcaching_placement::{PlacementAlgorithm, TrimCachingGen, TrimCachingGenLazy};
/// use trimcaching_scenario::prelude::*;
/// use trimcaching_wireless::geometry::{DeploymentArea, Point};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let library = SpecialCaseBuilder::paper_setup().models_per_backbone(3).build(1);
/// let mut rng = StdRng::seed_from_u64(7);
/// let area = DeploymentArea::paper_default();
/// let users: Vec<Point> = (0..8).map(|_| area.sample_uniform(&mut rng)).collect();
/// let demand = DemandConfig::paper_defaults().generate(8, library.num_models(), &mut rng)?;
/// let scenario = Scenario::builder()
///     .library(library)
///     .servers(vec![
///         EdgeServer::new(ServerId(0), Point::new(300.0, 500.0), gigabytes(1.0))?,
///         EdgeServer::new(ServerId(1), Point::new(700.0, 500.0), gigabytes(1.0))?,
///     ])
///     .users_at(&users)
///     .demand(demand)
///     .build()?;
///
/// let eager = TrimCachingGen::new().place(&scenario)?;
/// let lazy = TrimCachingGenLazy::new().place(&scenario)?;
/// assert_eq!(eager.placement, lazy.placement);
/// assert!(lazy.evaluations <= eager.evaluations);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct TrimCachingGenLazy;

impl TrimCachingGenLazy {
    /// Creates the algorithm.
    pub fn new() -> Self {
        Self
    }

    /// Runs the CELF greedy against an *arbitrary demand surface* over
    /// the scenario's eligibility and capacities — the re-placement
    /// entry point: an online controller feeds the
    /// [`DemandEstimate`](trimcaching_scenario::DemandEstimate) it
    /// reconstructed from the served request stream and gets back the
    /// placement the solver would choose for the demand it *observed*
    /// instead of the frozen offline snapshot. Passing the scenario's
    /// own [`Demand`](trimcaching_scenario::Demand) reproduces
    /// [`PlacementAlgorithm::place`] exactly.
    ///
    /// The returned outcome's `hit_ratio` is still evaluated under the
    /// scenario's ground-truth demand, so callers can compare planned
    /// placements on one scale regardless of the estimate quality.
    ///
    /// # Errors
    ///
    /// Returns a [`PlacementError`] when the demand view's dimensions
    /// disagree with the scenario's, or the scenario is inconsistent.
    pub fn place_with_demand(
        &self,
        scenario: &Scenario,
        demand: &dyn DemandView,
    ) -> Result<PlacementOutcome, PlacementError> {
        let objective = scenario.objective_with_demand(demand)?;
        self.place_with_objective(scenario, &objective)
    }

    /// [`Self::place_with_demand`] over an *explicit eligibility view*
    /// instead of the scenario's own — the failure-aware re-placement
    /// entry point: a controller passes the scenario eligibility wrapped
    /// in a [`MaskedEligibility`](trimcaching_scenario::MaskedEligibility)
    /// hiding the servers currently down, and the greedy never places a
    /// model on (or counts hits from) a dead server. Capacities and
    /// block sharing still come from the scenario. Passing the
    /// scenario's own eligibility reproduces
    /// [`Self::place_with_demand`] exactly.
    ///
    /// # Errors
    ///
    /// Returns a [`PlacementError`] when the demand's or eligibility's
    /// dimensions disagree, or the scenario is inconsistent.
    pub fn place_with_demand_on(
        &self,
        scenario: &Scenario,
        demand: &dyn DemandView,
        eligibility: &dyn EligibilityView,
    ) -> Result<PlacementOutcome, PlacementError> {
        let objective = HitRatioObjective::from_views(demand, eligibility)?;
        self.place_with_objective(scenario, &objective)
    }

    /// The CELF loop over an explicit objective (shared by the
    /// ground-truth and estimated-demand entry points).
    fn place_with_objective(
        &self,
        scenario: &Scenario,
        objective: &HitRatioObjective<'_>,
    ) -> Result<PlacementOutcome, PlacementError> {
        #[expect(
            clippy::disallowed_methods,
            reason = "measures solver wall time for PlacementOutcome reporting; never enters simulated time or traces"
        )]
        let start = Instant::now();
        let num_servers = scenario.num_servers();

        let mut placement = scenario.empty_placement();
        let mut coverage = objective.empty_coverage();
        let mut trackers: Vec<StorageTracker<'_>> = (0..num_servers)
            .map(|m| scenario.storage_tracker(ServerId(m)))
            .collect::<Result<_, _>>()?;
        let mut evaluations: u64 = 0;

        // Seed the queue with the round-0 gains of every candidate pair —
        // only models with at least one eligible user at the server; the
        // rest have zero gain forever and never enter the queue.
        let mut heap: BinaryHeap<Candidate> = BinaryHeap::new();
        for m in 0..num_servers {
            for model in objective.candidate_models(ServerId(m)) {
                evaluations += 1;
                let gain = coverage.gain(ServerId(m), model);
                if gain > 0.0 {
                    heap.push(Candidate {
                        gain,
                        server: m,
                        model: model.index(),
                        round: 0,
                    });
                }
            }
        }

        let mut round: u64 = 0;
        loop {
            round += 1;
            // Candidates that are up to date for this round but do not fit
            // right now; they may fit in later rounds once shared blocks are
            // paid for by siblings, so they are re-queued after selection.
            let mut deferred: Vec<Candidate> = Vec::new();
            let mut selected: Option<Candidate> = None;

            while let Some(mut top) = heap.pop() {
                if top.round != round {
                    // Stale upper bound: refresh and reconsider.
                    evaluations += 1;
                    top.gain = coverage.gain(ServerId(top.server), ModelId(top.model));
                    top.round = round;
                    if top.gain > 0.0 {
                        heap.push(top);
                    }
                    continue;
                }
                // Fresh gain that dominates everything still queued.
                if trackers[top.server].fits(ModelId(top.model))? {
                    selected = Some(top);
                    break;
                }
                deferred.push(top);
            }

            for c in deferred {
                heap.push(c);
            }

            match selected {
                Some(best) => {
                    placement.place(ServerId(best.server), ModelId(best.model))?;
                    coverage.cover(ServerId(best.server), ModelId(best.model));
                    trackers[best.server].add(ModelId(best.model))?;
                }
                None => break,
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

impl PlacementAlgorithm for TrimCachingGenLazy {
    fn name(&self) -> &str {
        "trimcaching-gen-lazy"
    }

    fn place(&self, scenario: &Scenario) -> Result<PlacementOutcome, PlacementError> {
        self.place_with_objective(scenario, &scenario.objective())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::general::TrimCachingGen;
    use crate::test_support::{paper_like_scenario, tiny_scenario};

    #[test]
    fn lazy_greedy_matches_eager_greedy_exactly() {
        for (seed, special) in [(1_u64, true), (5, true), (9, false), (13, false)] {
            let scenario = paper_like_scenario(4, 12, 12, 0.5, seed, special).unwrap();
            let eager = TrimCachingGen::new().place(&scenario).unwrap();
            let lazy = TrimCachingGenLazy::new().place(&scenario).unwrap();
            assert_eq!(
                eager.placement, lazy.placement,
                "seed {seed}: lazy greedy diverged from the eager greedy"
            );
            assert!((eager.hit_ratio - lazy.hit_ratio).abs() < 1e-12);
        }
    }

    #[test]
    fn lazy_greedy_needs_no_more_evaluations_than_eager() {
        let scenario = paper_like_scenario(4, 15, 18, 0.75, 3, true).unwrap();
        let eager = TrimCachingGen::new().place(&scenario).unwrap();
        let lazy = TrimCachingGenLazy::new().place(&scenario).unwrap();
        assert!(
            lazy.evaluations <= eager.evaluations,
            "lazy ({}) should not evaluate more gains than eager ({})",
            lazy.evaluations,
            eager.evaluations
        );
        // On non-trivial instances the saving is substantial.
        if eager.evaluations > 1_000 {
            assert!(lazy.evaluations * 2 <= eager.evaluations * 3);
        }
    }

    #[test]
    fn lazy_greedy_respects_shared_capacity() {
        for seed in [2_u64, 7, 11] {
            let scenario = paper_like_scenario(3, 10, 12, 0.4, seed, true).unwrap();
            let outcome = TrimCachingGenLazy::new().place(&scenario).unwrap();
            assert!(scenario.satisfies_capacities(&outcome.placement));
            assert!((0.0..=1.0).contains(&outcome.hit_ratio));
        }
    }

    #[test]
    fn deferred_candidates_are_reconsidered_in_later_rounds() {
        // A tight capacity forces the greedy to defer large models whose
        // shared prefix has not been paid for yet; the lazy variant must
        // still end up with the same packing as the eager variant.
        let scenario = tiny_scenario(9, 0.25, 17).unwrap();
        let eager = TrimCachingGen::new().place(&scenario).unwrap();
        let lazy = TrimCachingGenLazy::new().place(&scenario).unwrap();
        assert_eq!(eager.placement, lazy.placement);
    }

    #[test]
    fn ground_truth_demand_view_reproduces_place_exactly() {
        let scenario = paper_like_scenario(4, 12, 12, 0.5, 21, true).unwrap();
        let direct = TrimCachingGenLazy::new().place(&scenario).unwrap();
        let via_view = TrimCachingGenLazy::new()
            .place_with_demand(&scenario, scenario.demand())
            .unwrap();
        assert_eq!(direct.placement, via_view.placement);
        assert_eq!(direct.evaluations, via_view.evaluations);
        assert!((direct.hit_ratio - via_view.hit_ratio).abs() < 1e-15);
    }

    #[test]
    fn estimated_demand_steers_the_solver() {
        use trimcaching_scenario::DemandEstimate;
        let scenario = paper_like_scenario(3, 10, 12, 0.25, 8, true).unwrap();
        let truth = TrimCachingGenLazy::new().place(&scenario).unwrap();
        // An estimate that concentrates all observed demand on one model
        // still yields a feasible placement — and one that caches that
        // model wherever it has eligible users.
        let k = scenario.num_users();
        let i = scenario.num_models();
        let hot = 7usize;
        let mut weights = vec![0.0; k * i];
        for row in weights.chunks_exact_mut(i) {
            row[hot] = 1.0;
        }
        let estimate = DemandEstimate::new(i, weights).unwrap();
        let skewed = TrimCachingGenLazy::new()
            .place_with_demand(&scenario, &estimate)
            .unwrap();
        assert!(scenario.satisfies_capacities(&skewed.placement));
        let hot_copies = (0..scenario.num_servers())
            .filter(|&m| {
                skewed
                    .placement
                    .contains(trimcaching_scenario::ServerId(m), ModelId(hot))
            })
            .count();
        assert!(hot_copies >= 1, "the observed-hot model must be cached");
        // The outcome's hit ratio is scored under ground truth, so the
        // skewed plan cannot beat the solver run on the true demand.
        assert!(skewed.hit_ratio <= truth.hit_ratio + 1e-12);
        // A zero-mass estimate (nothing observed) plans nothing.
        let empty = DemandEstimate::new(i, vec![0.0; k * i]).unwrap();
        let none = TrimCachingGenLazy::new()
            .place_with_demand(&scenario, &empty)
            .unwrap();
        assert!(none.placement.is_empty());
        // Dimension mismatches are rejected.
        let wrong = DemandEstimate::new(i + 1, vec![1.0; k * (i + 1)]).unwrap();
        assert!(TrimCachingGenLazy::new()
            .place_with_demand(&scenario, &wrong)
            .is_err());
    }

    #[test]
    fn empty_capacity_yields_empty_placement() {
        let scenario = paper_like_scenario(2, 6, 6, 0.001, 4, true).unwrap();
        let outcome = TrimCachingGenLazy::new().place(&scenario).unwrap();
        assert!(outcome.placement.is_empty());
        assert_eq!(outcome.hit_ratio, 0.0);
        assert_eq!(outcome.algorithm, "trimcaching-gen-lazy");
    }

    #[test]
    fn candidate_ordering_prefers_gain_then_low_indices() {
        let a = Candidate {
            gain: 0.5,
            server: 1,
            model: 1,
            round: 0,
        };
        let b = Candidate {
            gain: 0.4,
            server: 0,
            model: 0,
            round: 0,
        };
        assert!(a > b);
        let c = Candidate {
            gain: 0.5,
            server: 0,
            model: 3,
            round: 0,
        };
        // Equal gain: the smaller server index wins (is "greater" in the
        // max-heap order).
        assert!(c > a);
        let d = Candidate {
            gain: 0.5,
            server: 0,
            model: 1,
            round: 0,
        };
        assert!(d > c);
    }
}

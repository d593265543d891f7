//! The cache-hit-ratio objective `U(X)` of Eq. (2).
//!
//! A request `(k, i)` is a *hit* under placement `X` when some edge server
//! `m` both caches model `i` (`x_{m,i} = 1`) and can deliver it within the
//! deadline (`I1(m,k,i) = 1`). The expected cache hit ratio is the
//! probability-weighted fraction of hit requests:
//!
//! ```text
//! U(X) = Σ_{k,i} p_{k,i} · [1 − Π_m (1 − x_{m,i} I1(m,k,i))] / Σ_{k,i} p_{k,i}
//! ```
//!
//! [`HitRatioObjective`] evaluates `U`, marginal gains, and per-request
//! hit classification. It consumes the eligibility indicator through the
//! [`EligibilityView`] trait, so the same evaluator runs unchanged over
//! the dense tensor and the coverage-pruned sparse representation — and
//! because every view yields indices in ascending order, the two paths
//! accumulate floats identically and produce bit-identical hit ratios.
//! The demand side is likewise consumed through the [`DemandView`]
//! trait, so the evaluator scores placements against the ground-truth
//! probabilities `p_{k,i}` or against an online
//! [`DemandEstimate`](crate::demand::DemandEstimate) interchangeably.
//!
//! # Marginal gains: the pointwise definition and the coverage
//!
//! [`HitRatioObjective::marginal_hits`] is the pointwise definition of
//! a pair's gain: it walks `users_for(m, i)` and asks
//! [`HitRatioObjective::is_served`] of every user, which walks
//! `servers_for(k, i)` and probes the placement per candidate server —
//! `|users_for(m, i)| · M` placement lookups on the dense tensor. It is
//! the oracle the tests and the submodularity checker use; no solver
//! calls it.
//!
//! The greedy solvers instead keep one
//! [`Coverage`] per solve: the set of request classes `(k, i)` already
//! served by the pairs placed so far, as one user bitset per model, next
//! to a column of the solve's weights `p_{k,i}`. A pair's gain has no
//! `M` factor. On the dense tensor it is `⌈K/64⌉` word ANDs of the
//! cell's user bitset with the complement of the model's covered bits,
//! plus one weight add per user left set. On the sparse representation
//! it is one bit test per user of the reverse row. Placing a pair ORs its
//! users into the covered bits. The coverage adds the same users' weights
//! in the same ascending order and skips exactly the users `is_served`
//! would, so every gain is bit-identical to `marginal_hits`.
//! [`HitRatioObjective::expected_hits`] scores a placement through the
//! same coverage.

use trimcaching_modellib::ModelId;

use crate::demand::DemandView;
use crate::eligibility::{bit_is_set, EligibilityView, ServerModels, UsersFor};
use crate::entities::{ServerId, UserId};
use crate::error::ScenarioError;
use crate::placement::Placement;

/// Evaluator of the expected cache hit ratio for a fixed demand and
/// eligibility view.
#[derive(Debug, Clone, Copy)]
pub struct HitRatioObjective<'a> {
    demand: &'a dyn DemandView,
    eligibility: &'a dyn EligibilityView,
}

impl<'a> HitRatioObjective<'a> {
    /// Creates an objective evaluator over any demand and eligibility
    /// representation.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::DimensionMismatch`] when the demand and the
    /// eligibility view disagree on the number of users or models.
    pub fn new<D, E>(demand: &'a D, eligibility: &'a E) -> Result<Self, ScenarioError>
    where
        D: DemandView,
        E: EligibilityView,
    {
        Self::from_views(demand, eligibility)
    }

    /// Trait-object variant of [`HitRatioObjective::new`] for callers
    /// that already hold dynamic views (e.g. an online controller
    /// carrying a boxed estimate).
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::DimensionMismatch`] when the demand and the
    /// eligibility view disagree on the number of users or models.
    pub fn from_views(
        demand: &'a dyn DemandView,
        eligibility: &'a dyn EligibilityView,
    ) -> Result<Self, ScenarioError> {
        if demand.num_users() != eligibility.num_users()
            || demand.num_models() != eligibility.num_models()
        {
            return Err(ScenarioError::DimensionMismatch {
                reason: format!(
                    "demand is {}x{} but eligibility is {}x{}",
                    demand.num_users(),
                    demand.num_models(),
                    eligibility.num_users(),
                    eligibility.num_models()
                ),
            });
        }
        Ok(Self {
            demand,
            eligibility,
        })
    }

    /// Builds the evaluator without re-checking dimensions. Only for
    /// callers that already validated the views against each other —
    /// [`crate::Scenario`] does so at construction and can therefore
    /// hand out objectives without a panic or error path.
    pub(crate) fn from_validated_views(
        demand: &'a dyn DemandView,
        eligibility: &'a dyn EligibilityView,
    ) -> Self {
        Self {
            demand,
            eligibility,
        }
    }

    /// The eligibility view the objective evaluates against.
    pub fn view(&self) -> &'a dyn EligibilityView {
        self.eligibility
    }

    /// Number of users `K`.
    pub fn num_users(&self) -> usize {
        self.demand.num_users()
    }

    /// Number of models `I`.
    pub fn num_models(&self) -> usize {
        self.demand.num_models()
    }

    /// Number of servers `M`.
    pub fn num_servers(&self) -> usize {
        self.eligibility.num_servers()
    }

    /// Total request mass `Σ_{k,i} p_{k,i}` — the denominator of Eq. (2).
    pub fn total_mass(&self) -> f64 {
        self.demand.total_mass()
    }

    /// The request weight `p_{k,i}`, zero for out-of-range indices.
    pub fn weight(&self, user: UserId, model: ModelId) -> f64 {
        self.demand.weight(user, model)
    }

    /// Whether server `m` can serve `(k, i)` within the deadline
    /// (`I1(m,k,i)`).
    pub fn eligible(&self, server: ServerId, user: UserId, model: ModelId) -> bool {
        self.eligibility.eligible(server.index(), user, model)
    }

    /// The users `server` can serve for `model` within deadline,
    /// ascending — the support of the marginal gain of `(server, model)`.
    pub fn eligible_users(&self, server: ServerId, model: ModelId) -> UsersFor<'a> {
        self.eligibility.users_for(server.index(), model)
    }

    /// The models `server` can serve for at least one user, ascending —
    /// the candidate set a greedy loop needs to consider for `server`.
    pub fn candidate_models(&self, server: ServerId) -> ServerModels<'a> {
        self.eligibility.server_models(server.index())
    }

    /// Whether request `(k, i)` is a hit under `placement`: some candidate
    /// server caches the model. Pointwise: one placement lookup per
    /// candidate server of `(k, i)`.
    pub fn is_served(&self, placement: &Placement, user: UserId, model: ModelId) -> bool {
        self.eligibility
            .servers_for(user, model)
            .any(|m| placement.contains(ServerId(m), model))
    }

    /// The coverage of an empty placement: no request class is served.
    /// Reads every weight `p_{k,i}` once, into the coverage's weight
    /// column.
    pub fn empty_coverage(&self) -> Coverage<'a> {
        let (users, models) = (self.num_users(), self.num_models());
        let words = users.div_ceil(64);
        let mut weights = Vec::with_capacity(users * models);
        for i in 0..models {
            weights.extend((0..users).map(|k| self.weight(UserId(k), ModelId(i))));
        }
        Coverage {
            objective: *self,
            words,
            covered: vec![0; models * words],
            weights,
        }
    }

    /// Expected number of hits `Σ_{k,i} p_{k,i} · hit(k,i)` — the numerator
    /// of Eq. (2). Every placed pair marks its eligible users in a
    /// [`Coverage`] (`Σ |users_for(m, i)|` over the placed pairs), then the
    /// weights of the covered classes are summed in `(k, i)` order.
    pub fn expected_hits(&self, placement: &Placement) -> f64 {
        let mut coverage = self.empty_coverage();
        for (server, model) in placement.iter() {
            coverage.cover(server, model);
        }
        coverage.expected_hits()
    }

    /// The expected cache hit ratio `U(X)` in `[0, 1]`.
    pub fn hit_ratio(&self, placement: &Placement) -> f64 {
        let mass = self.total_mass();
        if mass <= 0.0 {
            return 0.0;
        }
        self.expected_hits(placement) / mass
    }

    /// The increase in expected hits from additionally placing `model` on
    /// `server`: `U(X ∪ {x_{m,i}}) − U(X)` multiplied by the total mass
    /// (i.e. expressed in expected-hit units). Only requests for `model`
    /// that are not already served and become eligible through `server`
    /// contribute.
    ///
    /// This is the pointwise definition: every eligible user of
    /// `(server, model)` costs one [`Self::is_served`] walk over its
    /// candidate servers, `|users_for(m, i)| · M` placement lookups on the
    /// dense tensor. Solvers use [`Coverage::gain`], which returns the
    /// same bits in `|users_for(m, i)|` work.
    pub fn marginal_hits(&self, placement: &Placement, server: ServerId, model: ModelId) -> f64 {
        if placement.contains(server, model) {
            return 0.0;
        }
        let mut gain = 0.0;
        for user in self.eligibility.users_for(server.index(), model) {
            if self.is_served(placement, user, model) {
                continue;
            }
            gain += self.weight(user, model);
        }
        gain
    }

    /// The marginal gain expressed as a hit-ratio increment (normalised by
    /// the total mass).
    pub fn marginal_hit_ratio(
        &self,
        placement: &Placement,
        server: ServerId,
        model: ModelId,
    ) -> f64 {
        let mass = self.total_mass();
        if mass <= 0.0 {
            return 0.0;
        }
        self.marginal_hits(placement, server, model) / mass
    }
}

/// The served set of one placement, kept up to date while a solver grows
/// it: the request classes `(k, i)` some placed pair already serves.
///
/// Invariant: `covered[k · I + i]` is `true` exactly when some covered
/// pair `(m', i)` has `k ∈ users_for(m', i)` — i.e. exactly when
/// [`HitRatioObjective::is_served`] holds for the placement of the
/// covered pairs. [`Self::gain`] is therefore bit-identical to
/// [`HitRatioObjective::marginal_hits`] on that placement, and a pair
/// already covered scores `0` without a placement lookup, because all
/// of its users are covered.
///
/// The served set is one user bitset per model, `I · ⌈K/64⌉` words laid
/// out like a cell of the dense
/// [`EligibilityTensor`](crate::EligibilityTensor), so a dense gain is a
/// word-by-word `cell & !covered`. The weights are read once per solve
/// into a `K · I` column (`8 · K · I` bytes), model-major, so the
/// users of one model sit next to each other.
#[derive(Debug)]
pub struct Coverage<'a> {
    objective: HitRatioObjective<'a>,
    /// Words per model, `⌈K/64⌉`.
    words: usize,
    /// `covered[i · W + k / 64]` bit `k % 64`: `(k, i)` is served.
    covered: Vec<u64>,
    /// `weights[i · K + k] = p_{k,i}`.
    weights: Vec<f64>,
}

impl Coverage<'_> {
    /// The marginal gain of placing `model` on `server`, in expected-hit
    /// units: `Σ p_{k,i}` over the users of `users_for(m, i)` not yet
    /// covered, accumulated in ascending user order. Costs `⌈K/64⌉` word
    /// ANDs on the dense tensor and one bit test per user of the reverse
    /// row on the sparse one, plus one add per uncovered eligible user.
    ///
    /// With the pairs of the servers already processed covered, this is
    /// the per-server weight `u(m, i)` of Eq. (14) under the `I2` mask
    /// of TrimCaching Spec's successive greedy.
    pub fn gain(&self, server: ServerId, model: ModelId) -> f64 {
        let (i, users) = (model.index(), self.objective.num_users());
        let covered = self.covered.get(i * self.words..(i + 1) * self.words);
        let weights = self.weights.get(i * users..(i + 1) * users);
        match (covered, weights) {
            (Some(covered), Some(weights)) => self
                .objective
                .eligibility
                .users_for(server.index(), model)
                .uncovered_weight(covered, weights),
            _ => 0.0,
        }
    }

    /// Records `model` as placed on `server`: marks every user of
    /// `users_for(m, i)` served for `model`.
    pub fn cover(&mut self, server: ServerId, model: ModelId) {
        let i = model.index();
        if let Some(covered) = self.covered.get_mut(i * self.words..(i + 1) * self.words) {
            self.objective
                .eligibility
                .users_for(server.index(), model)
                .cover(covered);
        }
    }

    /// Expected number of hits of the covered pairs, summed in `(k, i)`
    /// order — the same order and terms as the pointwise definition.
    fn expected_hits(&self) -> f64 {
        let (users, models) = (self.objective.num_users(), self.objective.num_models());
        let mut total = 0.0;
        for k in 0..users {
            for i in 0..models {
                if bit_is_set(&self.covered[i * self.words..], k) {
                    total += self.weights[i * users + k];
                }
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::Demand;
    use crate::eligibility::{EligibilityTensor, SparseEligibility};

    /// 2 servers, 2 users, 2 models.
    /// - server 0 can serve user 0 for both models;
    /// - server 1 can serve user 1 for model 1 only;
    /// - user 1 / model 0 can never be served.
    fn fixture() -> (Demand, EligibilityTensor) {
        let demand = Demand::new(2, vec![0.6, 0.4, 0.7, 0.3], &[1.0; 4], &[0.1; 4]).unwrap();
        let eligibility = EligibilityTensor::from_fn(2, 2, 2, |m, k, i| {
            matches!((m, k, i), (0, 0, _) | (1, 1, 1))
        });
        (demand, eligibility)
    }

    #[test]
    fn empty_placement_has_zero_hit_ratio() {
        let (demand, elig) = fixture();
        let obj = HitRatioObjective::new(&demand, &elig).unwrap();
        let p = Placement::empty(2, 2);
        assert_eq!(obj.hit_ratio(&p), 0.0);
        assert_eq!(obj.expected_hits(&p), 0.0);
        assert_eq!(obj.num_users(), 2);
        assert_eq!(obj.num_models(), 2);
        assert_eq!(obj.num_servers(), 2);
        assert!((obj.total_mass() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn hit_ratio_counts_only_eligible_placements() {
        let (demand, elig) = fixture();
        let obj = HitRatioObjective::new(&demand, &elig).unwrap();
        let mut p = Placement::empty(2, 2);
        // Model 0 on server 0 serves only user 0 (weight 0.6).
        p.place(ServerId(0), ModelId(0)).unwrap();
        assert!((obj.expected_hits(&p) - 0.6).abs() < 1e-12);
        assert!((obj.hit_ratio(&p) - 0.3).abs() < 1e-12);
        assert!(obj.is_served(&p, UserId(0), ModelId(0)));
        assert!(!obj.is_served(&p, UserId(1), ModelId(0)));
        // Placing model 0 on server 1 helps nobody (server 1 only serves
        // user 1 / model 1).
        p.place(ServerId(1), ModelId(0)).unwrap();
        assert!((obj.expected_hits(&p) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn marginal_gains_ignore_already_served_requests() {
        let (demand, elig) = fixture();
        let obj = HitRatioObjective::new(&demand, &elig).unwrap();
        let mut p = Placement::empty(2, 2);
        // Initially, placing model 1 on server 0 would serve user 0
        // (weight 0.4); on server 1 it would serve user 1 (weight 0.3).
        assert!((obj.marginal_hits(&p, ServerId(0), ModelId(1)) - 0.4).abs() < 1e-12);
        assert!((obj.marginal_hits(&p, ServerId(1), ModelId(1)) - 0.3).abs() < 1e-12);
        p.place(ServerId(0), ModelId(1)).unwrap();
        // User 0 is now served; the remaining gain on server 1 is user 1.
        assert!((obj.marginal_hits(&p, ServerId(1), ModelId(1)) - 0.3).abs() < 1e-12);
        // Re-placing an existing model has no gain.
        assert_eq!(obj.marginal_hits(&p, ServerId(0), ModelId(1)), 0.0);
        // Normalised variant divides by the mass of 2.0.
        assert!((obj.marginal_hit_ratio(&p, ServerId(1), ModelId(1)) - 0.15).abs() < 1e-12);
    }

    #[test]
    fn empty_coverage_gain_is_the_per_server_weight_of_eq_14() {
        let (demand, elig) = fixture();
        let obj = HitRatioObjective::new(&demand, &elig).unwrap();
        let empty = obj.empty_coverage();
        // u(0, 0) = p_{0,0} = 0.6 (only user 0 is eligible at server 0).
        assert!((empty.gain(ServerId(0), ModelId(0)) - 0.6).abs() < 1e-12);
        // u(1, 0) = 0 (server 1 cannot serve model 0 for anyone).
        assert_eq!(empty.gain(ServerId(1), ModelId(0)), 0.0);
    }

    #[test]
    fn coverage_gains_equal_the_pointwise_marginal_hits() {
        let (demand, dense) = fixture();
        let sparse = SparseEligibility::from_fn(2, 2, 2, |m, k, i| {
            matches!((m, k, i), (0, 0, _) | (1, 1, 1))
        });
        let down = [true, false];
        let masked = crate::eligibility::MaskedEligibility::new(&dense, &down);
        let views: [&dyn EligibilityView; 3] = [&dense, &sparse, &masked];
        for view in views {
            let obj = HitRatioObjective::from_views(&demand, view).unwrap();
            let mut placement = Placement::empty(2, 2);
            let mut coverage = obj.empty_coverage();
            for (srv, model) in [(0, 1), (1, 1), (0, 0), (1, 0)] {
                for (m, i) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                    let (m, i) = (ServerId(m), ModelId(i));
                    assert_eq!(
                        coverage.gain(m, i).to_bits(),
                        obj.marginal_hits(&placement, m, i).to_bits()
                    );
                }
                placement.place(ServerId(srv), ModelId(model)).unwrap();
                coverage.cover(ServerId(srv), ModelId(model));
                assert_eq!(coverage.gain(ServerId(srv), ModelId(model)), 0.0);
                let mut pointwise = 0.0;
                for (k, i) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                    if obj.is_served(&placement, UserId(k), ModelId(i)) {
                        pointwise += obj.weight(UserId(k), ModelId(i));
                    }
                }
                assert_eq!(coverage.expected_hits().to_bits(), pointwise.to_bits());
                assert_eq!(obj.expected_hits(&placement).to_bits(), pointwise.to_bits());
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// After a random sequence of covers, every coverage gain equals
        /// `marginal_hits` bit for bit and the coverage's expected hits
        /// equal the pointwise sum, with `K` on a word boundary, on
        /// dense, sparse and masked views.
        #[test]
        fn coverage_matches_the_pointwise_definition_across_word_boundaries(
            seed in 0u64..1_000_000,
            edge in 0usize..7,
            density in 0usize..5,
            num_servers in 1usize..4,
            num_models in 1usize..4,
        ) {
            use crate::demand::DemandEstimate;
            use crate::eligibility::tests::{random_table, WORD_EDGES};
            use crate::eligibility::MaskedEligibility;
            use rand::{Rng, SeedableRng};

            let (m_count, k_count, i_count) = (num_servers, WORD_EDGES[edge], num_models);
            let table = random_table(seed, (m_count, k_count, i_count), density);
            let at = |m: usize, k: usize, i: usize| table[(m * k_count + k) * i_count + i];
            let dense = EligibilityTensor::from_fn(m_count, k_count, i_count, at);
            let sparse = SparseEligibility::from_fn(m_count, k_count, i_count, at);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let weights = (0..k_count * i_count)
                .map(|_| rng.gen_range(0.0..1.0))
                .collect();
            let demand = DemandEstimate::new(i_count, weights).unwrap();
            let covers: Vec<(ServerId, ModelId)> = (0..rng.gen_range(0..2 * m_count * i_count))
                .map(|_| (ServerId(rng.gen_range(0..m_count)), ModelId(rng.gen_range(0..i_count))))
                .collect();
            let down: Vec<bool> = (0..m_count).map(|m| m == seed as usize % m_count).collect();
            let masked_dense = MaskedEligibility::new(&dense, &down);
            let masked_sparse = MaskedEligibility::new(&sparse, &down);
            let views: [&dyn EligibilityView; 4] = [&dense, &sparse, &masked_dense, &masked_sparse];
            for view in views {
                let obj = HitRatioObjective::from_views(&demand, view).unwrap();
                let mut placement = Placement::empty(m_count, i_count);
                let mut coverage = obj.empty_coverage();
                for &(server, model) in &covers {
                    if !placement.contains(server, model) {
                        placement.place(server, model).unwrap();
                    }
                    coverage.cover(server, model);
                    for m in 0..m_count {
                        for i in 0..i_count {
                            let (m, i) = (ServerId(m), ModelId(i));
                            assert_eq!(
                                coverage.gain(m, i).to_bits(),
                                obj.marginal_hits(&placement, m, i).to_bits()
                            );
                        }
                    }
                }
                let mut pointwise = 0.0;
                for k in 0..k_count {
                    for i in 0..i_count {
                        if obj.is_served(&placement, UserId(k), ModelId(i)) {
                            pointwise += obj.weight(UserId(k), ModelId(i));
                        }
                    }
                }
                assert_eq!(coverage.expected_hits().to_bits(), pointwise.to_bits());
                assert_eq!(obj.expected_hits(&placement).to_bits(), pointwise.to_bits());
            }
        }
    }

    #[test]
    fn hit_ratio_is_monotone_under_additional_placements() {
        let (demand, elig) = fixture();
        let obj = HitRatioObjective::new(&demand, &elig).unwrap();
        let mut p = Placement::empty(2, 2);
        let mut last = 0.0;
        let additions = [
            (ServerId(0), ModelId(0)),
            (ServerId(0), ModelId(1)),
            (ServerId(1), ModelId(1)),
            (ServerId(1), ModelId(0)),
        ];
        for (s, m) in additions {
            p.place(s, m).unwrap();
            let u = obj.hit_ratio(&p);
            assert!(u >= last - 1e-12, "hit ratio decreased: {u} < {last}");
            last = u;
        }
        // Full placement serves user0/model0, user0/model1, user1/model1
        // but never user1/model0: (0.6 + 0.4 + 0.3) / 2.0 = 0.65.
        assert!((last - 0.65).abs() < 1e-12);
    }

    #[test]
    fn mismatched_dimensions_are_rejected() {
        let (demand, _) = fixture();
        let wrong = EligibilityTensor::from_fn(2, 3, 2, |_, _, _| true);
        assert!(HitRatioObjective::new(&demand, &wrong).is_err());
        let wrong = EligibilityTensor::from_fn(2, 2, 5, |_, _, _| true);
        assert!(HitRatioObjective::new(&demand, &wrong).is_err());
    }

    #[test]
    fn weights_outside_range_are_zero() {
        let (demand, elig) = fixture();
        let obj = HitRatioObjective::new(&demand, &elig).unwrap();
        assert_eq!(obj.weight(UserId(9), ModelId(0)), 0.0);
        assert_eq!(obj.weight(UserId(0), ModelId(9)), 0.0);
    }

    #[test]
    fn estimated_demand_drives_the_objective_like_the_ground_truth() {
        use crate::demand::DemandEstimate;
        let (demand, elig) = fixture();
        // An estimate exactly proportional to the true probabilities (an
        // observed request stream scales every weight by the request
        // volume) produces identical hit ratios and proportional gains.
        let scaled = DemandEstimate::new(2, vec![6.0, 4.0, 7.0, 3.0]).unwrap();
        let truth = HitRatioObjective::new(&demand, &elig).unwrap();
        let est = HitRatioObjective::new(&scaled, &elig).unwrap();
        let mut p = Placement::empty(2, 2);
        p.place(ServerId(0), ModelId(0)).unwrap();
        assert!((truth.hit_ratio(&p) - est.hit_ratio(&p)).abs() < 1e-12);
        assert!(
            (est.marginal_hits(&p, ServerId(1), ModelId(1)) - 3.0).abs() < 1e-12,
            "gains are expressed in the estimate's own weight units"
        );
        // A skewed estimate reorders the gains — the planner would now
        // prefer model 0 at server 0 over model 1.
        let skewed = DemandEstimate::new(2, vec![9.0, 0.1, 0.1, 0.1]).unwrap();
        let skewed_obj = HitRatioObjective::new(&skewed, &elig).unwrap();
        let empty = Placement::empty(2, 2);
        assert!(
            skewed_obj.marginal_hits(&empty, ServerId(0), ModelId(0))
                > skewed_obj.marginal_hits(&empty, ServerId(0), ModelId(1))
        );
    }

    #[test]
    fn dense_and_sparse_views_give_bit_identical_objectives() {
        let (demand, dense) = fixture();
        let sparse = SparseEligibility::from_fn(2, 2, 2, |m, k, i| {
            matches!((m, k, i), (0, 0, _) | (1, 1, 1))
        });
        let d = HitRatioObjective::new(&demand, &dense).unwrap();
        let s = HitRatioObjective::new(&demand, &sparse).unwrap();
        let mut p = Placement::empty(2, 2);
        for (srv, model) in [(0, 1), (1, 1), (0, 0)] {
            assert_eq!(
                d.marginal_hits(&p, ServerId(srv), ModelId(model)),
                s.marginal_hits(&p, ServerId(srv), ModelId(model))
            );
            p.place(ServerId(srv), ModelId(model)).unwrap();
            assert_eq!(d.hit_ratio(&p), s.hit_ratio(&p));
            assert_eq!(d.expected_hits(&p), s.expected_hits(&p));
        }
        // The candidate sets agree too.
        for srv in 0..2 {
            assert_eq!(
                d.candidate_models(ServerId(srv)).collect::<Vec<_>>(),
                s.candidate_models(ServerId(srv)).collect::<Vec<_>>()
            );
            for i in 0..2 {
                assert_eq!(
                    d.eligible_users(ServerId(srv), ModelId(i))
                        .collect::<Vec<_>>(),
                    s.eligible_users(ServerId(srv), ModelId(i))
                        .collect::<Vec<_>>()
                );
            }
        }
        assert_eq!(d.view().num_eligible(), s.view().num_eligible());
    }
}

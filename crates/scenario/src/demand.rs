//! User demand: request probabilities, latency budgets and inference
//! latencies.
//!
//! For every user `k` and model `i` the paper's formulation needs:
//!
//! * `p_{k,i}` — the probability that user `k` requests model `i`
//!   (drawn from a Zipf popularity law in the evaluation);
//! * `T̄_{k,i}` — the end-to-end QoS budget covering model downloading plus
//!   on-device inference (uniform in `[0.5, 1]` s in the evaluation);
//! * `t_{k,i}` — the on-device inference latency included in the
//!   end-to-end latency of Eqs. (4)–(5).
//!
//! [`Demand`] stores those three `K × I` matrices; [`DemandConfig`] is the
//! random generator reproducing the paper's distributions.
//!
//! The hit-ratio objective of Eq. (2) only consumes the *weights*
//! `p_{k,i}` (and their total mass), not the latency matrices — that
//! surface is the [`DemandView`] trait, implemented both by the
//! ground-truth [`Demand`] and by [`DemandEstimate`], the unnormalised
//! weight matrix an online controller reconstructs from a served request
//! stream. Re-placement can therefore run the very same solver over
//! observed demand instead of the frozen offline snapshot.

use rand::Rng;

use trimcaching_modellib::{ModelId, ZipfPopularity};

use crate::entities::UserId;
use crate::error::ScenarioError;

/// Per-user, per-model demand description.
///
/// Row storage is per *demand class* and `user_class[k]` names the
/// class of user `k`. [`Demand::new`] builds one class per user (the
/// identity map); [`Demand::clustered`] takes an explicit map, so a
/// million-user city only materialises `C × I` rows plus a `K`-length
/// class map instead of the `K × I` triple. Every accessor resolves
/// users through the map, so consumers (eligibility, latency,
/// objective, workload) see users, never classes.
#[derive(Debug, Clone, PartialEq)]
pub struct Demand {
    /// `probabilities[row][i]` = `p_{k,i}` for every user `k` of `row`'s
    /// class. Rows need not be normalised: the objective of Eq. (2)
    /// divides by the total mass.
    probabilities: Vec<Vec<f64>>,
    /// `deadlines_s[row][i]` = `T̄_{k,i}` in seconds.
    deadlines_s: Vec<Vec<f64>>,
    /// `inference_s[row][i]` = `t_{k,i}` in seconds.
    inference_s: Vec<Vec<f64>>,
    /// User `k` reads row `user_class[k]`.
    user_class: Vec<u32>,
}

impl Demand {
    /// Creates a demand description from explicit matrices.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::DimensionMismatch`] if the three matrices do
    /// not have identical shapes or are empty, and
    /// [`ScenarioError::InvalidValue`] if a probability is negative/non-finite
    /// or a latency is non-positive/non-finite.
    pub fn new(
        probabilities: Vec<Vec<f64>>,
        deadlines_s: Vec<Vec<f64>>,
        inference_s: Vec<Vec<f64>>,
    ) -> Result<Self, ScenarioError> {
        if probabilities.is_empty() || probabilities[0].is_empty() {
            return Err(ScenarioError::DimensionMismatch {
                reason: "demand matrices must be non-empty".into(),
            });
        }
        let k = probabilities.len();
        let i = probabilities[0].len();
        let same_shape = |m: &Vec<Vec<f64>>| m.len() == k && m.iter().all(|row| row.len() == i);
        if !same_shape(&probabilities) || !same_shape(&deadlines_s) || !same_shape(&inference_s) {
            return Err(ScenarioError::DimensionMismatch {
                reason: format!(
                    "expected {k} x {i} matrices for probabilities/deadlines/inference"
                ),
            });
        }
        for row in &probabilities {
            for &p in row {
                if !p.is_finite() || p < 0.0 {
                    return Err(ScenarioError::InvalidValue {
                        name: "request probability",
                        value: p,
                    });
                }
            }
        }
        for (name, matrix) in [
            ("deadline", &deadlines_s),
            ("inference latency", &inference_s),
        ] {
            for row in matrix.iter() {
                for &v in row {
                    if !v.is_finite() || v <= 0.0 {
                        return Err(ScenarioError::InvalidValue { name, value: v });
                    }
                }
            }
        }
        Ok(Self {
            user_class: (0..k as u32).collect(),
            probabilities,
            deadlines_s,
            inference_s,
        })
    }

    /// Creates a **clustered** demand description: the matrices hold one
    /// row per demand class and `user_class[k]` names the class of user
    /// `k`. With the identity map (`user_class[k] == k` and as many
    /// classes as users) the result equals [`Demand::new`] over the same
    /// rows.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::DimensionMismatch`] when `user_class` is
    /// empty or a class index is out of range, plus every validation
    /// [`Demand::new`] performs on the class matrices.
    pub fn clustered(
        probabilities: Vec<Vec<f64>>,
        deadlines_s: Vec<Vec<f64>>,
        inference_s: Vec<Vec<f64>>,
        user_class: Vec<u32>,
    ) -> Result<Self, ScenarioError> {
        let base = Self::new(probabilities, deadlines_s, inference_s)?;
        if user_class.is_empty() {
            return Err(ScenarioError::DimensionMismatch {
                reason: "clustered demand needs at least one user".into(),
            });
        }
        let num_classes = base.probabilities.len();
        if let Some(&bad) = user_class.iter().find(|&&c| c as usize >= num_classes) {
            return Err(ScenarioError::DimensionMismatch {
                reason: format!("user class {bad} out of range for {num_classes} classes"),
            });
        }
        Ok(Self { user_class, ..base })
    }

    /// Number of users `K`.
    pub fn num_users(&self) -> usize {
        self.user_class.len()
    }

    /// Number of demand-class rows actually stored (equals
    /// [`Demand::num_users`] for [`Demand::new`]).
    pub fn num_classes(&self) -> usize {
        self.probabilities.len()
    }

    /// The class map: `user_classes()[k]` names user `k`'s class.
    pub fn user_classes(&self) -> &[u32] {
        &self.user_class
    }

    /// The stored popularity rows, one per class: `p_{k,·}` of every
    /// user `k` of that class. Lets consumers that build per-row state
    /// — e.g. the workload's CDF tables — scale with
    /// [`Demand::num_classes`] rather than [`Demand::num_users`].
    pub fn class_probabilities(&self) -> &[Vec<f64>] {
        &self.probabilities
    }

    /// This demand with its popularity rows replaced by `probabilities`
    /// (one row per stored class); deadlines, inference latencies and
    /// the class map are kept.
    ///
    /// # Errors
    ///
    /// Fails like [`Demand::clustered`] for rows of the wrong shape or
    /// invalid probabilities.
    pub fn with_class_probabilities(
        &self,
        probabilities: Vec<Vec<f64>>,
    ) -> Result<Self, ScenarioError> {
        Self::clustered(
            probabilities,
            self.deadlines_s.clone(),
            self.inference_s.clone(),
            self.user_class.clone(),
        )
    }

    /// The matrix row index of `user`, or an error for unknown users.
    fn row_of(&self, user: UserId) -> Result<usize, ScenarioError> {
        self.user_class
            .get(user.index())
            .map(|&c| c as usize)
            .ok_or(ScenarioError::IndexOutOfRange {
                entity: "user",
                index: user.index(),
                len: self.user_class.len(),
            })
    }

    /// Number of models `I`.
    pub fn num_models(&self) -> usize {
        self.probabilities[0].len()
    }

    /// Request probability `p_{k,i}`.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::IndexOutOfRange`] for unknown indices.
    pub fn probability(&self, user: UserId, model: ModelId) -> Result<f64, ScenarioError> {
        self.lookup(&self.probabilities, user, model)
    }

    /// QoS budget `T̄_{k,i}` in seconds.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::IndexOutOfRange`] for unknown indices.
    pub fn deadline_s(&self, user: UserId, model: ModelId) -> Result<f64, ScenarioError> {
        self.lookup(&self.deadlines_s, user, model)
    }

    /// On-device inference latency `t_{k,i}` in seconds.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::IndexOutOfRange`] for unknown indices.
    pub fn inference_s(&self, user: UserId, model: ModelId) -> Result<f64, ScenarioError> {
        self.lookup(&self.inference_s, user, model)
    }

    /// Total request mass `Σ_k Σ_i p_{k,i}` — the denominator of Eq. (2),
    /// accumulated user-major, model-minor.
    pub fn total_probability_mass(&self) -> f64 {
        let mut acc = 0.0;
        for &c in &self.user_class {
            for &p in &self.probabilities[c as usize] {
                acc += p;
            }
        }
        acc
    }

    fn lookup(
        &self,
        matrix: &[Vec<f64>],
        user: UserId,
        model: ModelId,
    ) -> Result<f64, ScenarioError> {
        let row = &matrix[self.row_of(user)?];
        row.get(model.index())
            .copied()
            .ok_or(ScenarioError::IndexOutOfRange {
                entity: "model",
                index: model.index(),
                len: row.len(),
            })
    }
}

/// The demand surface the hit-ratio objective of Eq. (2) consumes:
/// per-`(user, model)` request weights plus the total mass normalising
/// them. Weights need not sum to one — the objective divides by
/// [`DemandView::total_mass`] — so both the ground-truth probabilities
/// of [`Demand`] and the unnormalised rate estimates of
/// [`DemandEstimate`] satisfy the trait, and every consumer (objective,
/// greedy solvers) runs unchanged over either.
pub trait DemandView: std::fmt::Debug {
    /// Number of users `K`.
    fn num_users(&self) -> usize;

    /// Number of models `I`.
    fn num_models(&self) -> usize;

    /// Request weight of `(user, model)`; zero for out-of-range indices.
    fn weight(&self, user: UserId, model: ModelId) -> f64;

    /// Total weight `Σ_{k,i}` — the denominator of Eq. (2).
    fn total_mass(&self) -> f64;
}

impl DemandView for Demand {
    fn num_users(&self) -> usize {
        Demand::num_users(self)
    }

    fn num_models(&self) -> usize {
        Demand::num_models(self)
    }

    fn weight(&self, user: UserId, model: ModelId) -> f64 {
        self.probability(user, model).unwrap_or(0.0)
    }

    fn total_mass(&self) -> f64 {
        self.total_probability_mass()
    }
}

/// An estimated demand surface: a `K × I` matrix of non-negative request
/// weights (typically EWMA request rates observed by an online
/// estimator). Satisfies [`DemandView`], so the placement solvers accept
/// it wherever they accept the ground-truth [`Demand`].
#[derive(Debug, Clone, PartialEq)]
pub struct DemandEstimate {
    /// `weights[k][i]` — unnormalised request weight of `(k, i)`.
    weights: Vec<Vec<f64>>,
    /// Cached `Σ weights`.
    total: f64,
}

impl DemandEstimate {
    /// Creates an estimate from an explicit weight matrix.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::DimensionMismatch`] for an empty or
    /// ragged matrix and [`ScenarioError::InvalidValue`] for a negative
    /// or non-finite weight. An all-zero matrix is allowed (an estimator
    /// that has observed nothing): the objective treats it as zero mass.
    pub fn new(weights: Vec<Vec<f64>>) -> Result<Self, ScenarioError> {
        if weights.is_empty() || weights[0].is_empty() {
            return Err(ScenarioError::DimensionMismatch {
                reason: "estimate matrix must be non-empty".into(),
            });
        }
        let i = weights[0].len();
        if weights.iter().any(|row| row.len() != i) {
            return Err(ScenarioError::DimensionMismatch {
                reason: "estimate rows must all have the same length".into(),
            });
        }
        let mut total = 0.0;
        for row in &weights {
            for &w in row {
                if !w.is_finite() || w < 0.0 {
                    return Err(ScenarioError::InvalidValue {
                        name: "estimated request weight",
                        value: w,
                    });
                }
                total += w;
            }
        }
        Ok(Self { weights, total })
    }

    /// The weight of `(user, model)`, zero for out-of-range indices.
    pub fn weight(&self, user: UserId, model: ModelId) -> f64 {
        self.weights
            .get(user.index())
            .and_then(|row| row.get(model.index()))
            .copied()
            .unwrap_or(0.0)
    }
}

impl DemandView for DemandEstimate {
    fn num_users(&self) -> usize {
        self.weights.len()
    }

    fn num_models(&self) -> usize {
        self.weights[0].len()
    }

    fn weight(&self, user: UserId, model: ModelId) -> f64 {
        DemandEstimate::weight(self, user, model)
    }

    fn total_mass(&self) -> f64 {
        self.total
    }
}

/// Random-demand generator reproducing Section VII-A: Zipf request
/// popularity and uniform `[0.5, 1]` s end-to-end budgets.
#[derive(Debug, Clone, PartialEq)]
pub struct DemandConfig {
    /// Zipf skew exponent for request popularity.
    pub zipf_exponent: f64,
    /// When `true` every user gets an independent popularity ranking;
    /// when `false` all users share a global ranking.
    pub personalised_popularity: bool,
    /// Inclusive range of the end-to-end deadline `T̄_{k,i}` in seconds.
    pub deadline_range_s: (f64, f64),
    /// Inclusive range of the on-device inference latency `t_{k,i}` in
    /// seconds.
    pub inference_range_s: (f64, f64),
}

impl DemandConfig {
    /// The configuration used in the paper's evaluation.
    pub fn paper_defaults() -> Self {
        Self {
            zipf_exponent: ZipfPopularity::DEFAULT_EXPONENT,
            personalised_popularity: true,
            deadline_range_s: (0.5, 1.0),
            inference_range_s: (0.02, 0.1),
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::InvalidValue`] naming the first invalid
    /// field.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if !self.zipf_exponent.is_finite() || self.zipf_exponent < 0.0 {
            return Err(ScenarioError::InvalidValue {
                name: "zipf_exponent",
                value: self.zipf_exponent,
            });
        }
        for (name, (lo, hi)) in [
            ("deadline_range_s", self.deadline_range_s),
            ("inference_range_s", self.inference_range_s),
        ] {
            if !(lo.is_finite() && hi.is_finite()) || lo <= 0.0 || hi < lo {
                return Err(ScenarioError::InvalidValue { name, value: lo });
            }
        }
        Ok(())
    }

    /// Generates a demand description for `num_users` users over
    /// `num_models` models.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::InvalidValue`] if the configuration is
    /// invalid or either count is zero.
    pub fn generate<R: Rng + ?Sized>(
        &self,
        num_users: usize,
        num_models: usize,
        rng: &mut R,
    ) -> Result<Demand, ScenarioError> {
        self.validate()?;
        if num_users == 0 {
            return Err(ScenarioError::InvalidValue {
                name: "num_users",
                value: 0.0,
            });
        }
        if num_models == 0 {
            return Err(ScenarioError::InvalidValue {
                name: "num_models",
                value: 0.0,
            });
        }
        let zipf = ZipfPopularity::new(num_models, self.zipf_exponent)?;
        let probabilities =
            zipf.per_user_probabilities(num_users, self.personalised_popularity, rng);
        let sample_range = |rng: &mut R, (lo, hi): (f64, f64)| {
            if (hi - lo).abs() < f64::EPSILON {
                lo
            } else {
                rng.gen_range(lo..=hi)
            }
        };
        let deadlines_s = (0..num_users)
            .map(|_| {
                (0..num_models)
                    .map(|_| sample_range(rng, self.deadline_range_s))
                    .collect()
            })
            .collect();
        let inference_s = (0..num_users)
            .map(|_| {
                (0..num_models)
                    .map(|_| sample_range(rng, self.inference_range_s))
                    .collect()
            })
            .collect();
        Demand::new(probabilities, deadlines_s, inference_s)
    }

    /// Generates a **clustered** demand description: `num_classes` Zipf
    /// popularity rows (and deadline/inference rows) are drawn exactly
    /// like [`DemandConfig::generate`] would draw them for `num_classes`
    /// users, and the `num_users` users are assigned round-robin
    /// (`class(k) = k mod num_classes`). Memory and RNG cost scale with
    /// `num_classes × num_models`, never with `num_users`, which is what
    /// lets a million-user scenario build without the dense `K × I`
    /// triple.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::InvalidValue`] if the configuration is
    /// invalid or any count is zero.
    pub fn generate_clustered<R: Rng + ?Sized>(
        &self,
        num_users: usize,
        num_models: usize,
        num_classes: usize,
        rng: &mut R,
    ) -> Result<Demand, ScenarioError> {
        if num_classes == 0 {
            return Err(ScenarioError::InvalidValue {
                name: "num_classes",
                value: 0.0,
            });
        }
        if num_users == 0 {
            return Err(ScenarioError::InvalidValue {
                name: "num_users",
                value: 0.0,
            });
        }
        let rows = self.generate(num_classes, num_models, rng)?;
        let user_class = (0..num_users).map(|k| (k % num_classes) as u32).collect();
        Demand::clustered(
            rows.probabilities,
            rows.deadlines_s,
            rows.inference_s,
            user_class,
        )
    }

    /// Generates a clustered demand description with an **explicit**
    /// user→class map instead of the round-robin assignment of
    /// [`DemandConfig::generate_clustered`]: `num_classes` Zipf rows are
    /// drawn exactly the same way, but each user `k` requests from class
    /// `user_class[k]`. This is how *correlated regional popularity* is
    /// built — the caller derives the map from user positions (one class
    /// per region), so neighbours share a demand profile.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::InvalidValue`] for a zero class or user
    /// count, and propagates [`Demand::clustered`] errors for class
    /// indices out of range.
    pub fn generate_clustered_mapped<R: Rng + ?Sized>(
        &self,
        num_models: usize,
        num_classes: usize,
        user_class: Vec<u32>,
        rng: &mut R,
    ) -> Result<Demand, ScenarioError> {
        if num_classes == 0 {
            return Err(ScenarioError::InvalidValue {
                name: "num_classes",
                value: 0.0,
            });
        }
        if user_class.is_empty() {
            return Err(ScenarioError::InvalidValue {
                name: "num_users",
                value: 0.0,
            });
        }
        let rows = self.generate(num_classes, num_models, rng)?;
        Demand::clustered(
            rows.probabilities,
            rows.deadlines_s,
            rows.inference_s,
            user_class,
        )
    }
}

impl Default for DemandConfig {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_demand() -> Demand {
        Demand::new(
            vec![vec![0.5, 0.3], vec![0.2, 0.8]],
            vec![vec![1.0, 0.7], vec![0.6, 0.9]],
            vec![vec![0.05, 0.05], vec![0.1, 0.1]],
        )
        .unwrap()
    }

    #[test]
    fn accessors_return_matrix_entries() {
        let d = small_demand();
        assert_eq!(d.num_users(), 2);
        assert_eq!(d.num_models(), 2);
        assert_eq!(d.probability(UserId(0), ModelId(1)).unwrap(), 0.3);
        assert_eq!(d.deadline_s(UserId(1), ModelId(0)).unwrap(), 0.6);
        assert_eq!(d.inference_s(UserId(1), ModelId(1)).unwrap(), 0.1);
        assert!((d.total_probability_mass() - 1.8).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_lookups_error() {
        let d = small_demand();
        assert!(d.probability(UserId(2), ModelId(0)).is_err());
        assert!(d.probability(UserId(0), ModelId(5)).is_err());
    }

    #[test]
    fn construction_validates_shapes_and_values() {
        assert!(Demand::new(vec![], vec![], vec![]).is_err());
        assert!(Demand::new(vec![vec![]], vec![vec![]], vec![vec![]]).is_err());
        // Mismatched shapes.
        assert!(Demand::new(vec![vec![0.1, 0.2]], vec![vec![1.0]], vec![vec![0.1, 0.1]]).is_err());
        // Negative probability.
        assert!(Demand::new(vec![vec![-0.1]], vec![vec![1.0]], vec![vec![0.1]]).is_err());
        // Zero deadline.
        assert!(Demand::new(vec![vec![0.1]], vec![vec![0.0]], vec![vec![0.1]]).is_err());
        // Non-finite inference latency.
        assert!(Demand::new(vec![vec![0.1]], vec![vec![1.0]], vec![vec![f64::NAN]]).is_err());
    }

    #[test]
    fn generator_matches_paper_ranges() {
        let cfg = DemandConfig::paper_defaults();
        let mut rng = StdRng::seed_from_u64(3);
        let d = cfg.generate(20, 30, &mut rng).unwrap();
        assert_eq!(d.num_users(), 20);
        assert_eq!(d.num_models(), 30);
        for k in 0..20 {
            let mut row_sum = 0.0;
            for i in 0..30 {
                let p = d.probability(UserId(k), ModelId(i)).unwrap();
                let t = d.deadline_s(UserId(k), ModelId(i)).unwrap();
                let inf = d.inference_s(UserId(k), ModelId(i)).unwrap();
                assert!((0.0..=1.0).contains(&p));
                assert!((0.5..=1.0).contains(&t));
                assert!((0.02..=0.1).contains(&inf));
                row_sum += p;
            }
            assert!((row_sum - 1.0).abs() < 1e-9, "per-user Zipf mass sums to 1");
        }
    }

    #[test]
    fn generator_is_deterministic_per_seed() {
        let cfg = DemandConfig::paper_defaults();
        let a = cfg.generate(5, 10, &mut StdRng::seed_from_u64(9)).unwrap();
        let b = cfg.generate(5, 10, &mut StdRng::seed_from_u64(9)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn generator_rejects_invalid_configs() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut cfg = DemandConfig::paper_defaults();
        cfg.zipf_exponent = -1.0;
        assert!(cfg.generate(2, 2, &mut rng).is_err());
        let mut cfg = DemandConfig::paper_defaults();
        cfg.deadline_range_s = (1.0, 0.5);
        assert!(cfg.generate(2, 2, &mut rng).is_err());
        let cfg = DemandConfig::paper_defaults();
        assert!(cfg.generate(0, 2, &mut rng).is_err());
        assert!(cfg.generate(2, 0, &mut rng).is_err());
    }

    #[test]
    fn demand_view_matches_the_underlying_probabilities() {
        let d = small_demand();
        let view: &dyn DemandView = &d;
        assert_eq!(view.num_users(), 2);
        assert_eq!(view.num_models(), 2);
        assert_eq!(view.weight(UserId(0), ModelId(1)), 0.3);
        assert_eq!(view.weight(UserId(9), ModelId(0)), 0.0);
        assert!((view.total_mass() - d.total_probability_mass()).abs() < 1e-15);
    }

    #[test]
    fn estimate_validates_and_exposes_weights() {
        let e = DemandEstimate::new(vec![vec![2.0, 0.0], vec![0.5, 1.5]]).unwrap();
        assert_eq!(DemandView::num_users(&e), 2);
        assert_eq!(DemandView::num_models(&e), 2);
        assert_eq!(e.weight(UserId(0), ModelId(0)), 2.0);
        assert_eq!(e.weight(UserId(5), ModelId(0)), 0.0);
        assert!((e.total_mass() - 4.0).abs() < 1e-12);
        // Zero mass is allowed; structural and value errors are not.
        assert!(DemandEstimate::new(vec![vec![0.0; 3]; 2]).is_ok());
        assert!(DemandEstimate::new(vec![]).is_err());
        assert!(DemandEstimate::new(vec![vec![]]).is_err());
        assert!(DemandEstimate::new(vec![vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(DemandEstimate::new(vec![vec![-0.1]]).is_err());
        assert!(DemandEstimate::new(vec![vec![f64::NAN]]).is_err());
    }

    #[test]
    fn clustered_identity_matches_singleton_bit_for_bit() {
        let d = small_demand();
        let c = Demand::clustered(
            vec![vec![0.5, 0.3], vec![0.2, 0.8]],
            vec![vec![1.0, 0.7], vec![0.6, 0.9]],
            vec![vec![0.05, 0.05], vec![0.1, 0.1]],
            vec![0, 1],
        )
        .unwrap();
        assert_eq!(c.num_users(), d.num_users());
        assert_eq!(c.num_models(), d.num_models());
        assert_eq!(c.num_classes(), 2);
        assert_eq!(c.user_classes(), d.user_classes());
        assert_eq!(c, d);
        for k in 0..2 {
            for i in 0..2 {
                let (u, m) = (UserId(k), ModelId(i));
                assert_eq!(
                    c.probability(u, m).unwrap().to_bits(),
                    d.probability(u, m).unwrap().to_bits()
                );
                assert_eq!(c.deadline_s(u, m).unwrap(), d.deadline_s(u, m).unwrap());
                assert_eq!(c.inference_s(u, m).unwrap(), d.inference_s(u, m).unwrap());
            }
        }
        assert_eq!(
            c.total_probability_mass().to_bits(),
            d.total_probability_mass().to_bits()
        );
    }

    #[test]
    fn clustered_users_share_class_rows() {
        let c = Demand::clustered(
            vec![vec![0.9, 0.1], vec![0.4, 0.6]],
            vec![vec![1.0, 1.0], vec![0.5, 0.5]],
            vec![vec![0.05, 0.05], vec![0.02, 0.02]],
            vec![0, 1, 0, 1, 0],
        )
        .unwrap();
        assert_eq!(c.num_users(), 5);
        assert_eq!(c.num_classes(), 2);
        // Users 0, 2, 4 read class 0; users 1, 3 read class 1.
        assert_eq!(c.probability(UserId(4), ModelId(0)).unwrap(), 0.9);
        assert_eq!(c.probability(UserId(3), ModelId(1)).unwrap(), 0.6);
        assert_eq!(c.deadline_s(UserId(1), ModelId(0)).unwrap(), 0.5);
        // Mass counts every *user*, not every stored row:
        // 3 × (0.9 + 0.1) + 2 × (0.4 + 0.6) = 5.
        assert!((c.total_probability_mass() - 5.0).abs() < 1e-12);
        // Out-of-range users still error.
        assert!(c.probability(UserId(5), ModelId(0)).is_err());
    }

    #[test]
    fn clustered_construction_validates_the_class_map() {
        let rows = (
            vec![vec![0.5, 0.5]],
            vec![vec![1.0, 1.0]],
            vec![vec![0.05, 0.05]],
        );
        // Empty map.
        assert!(Demand::clustered(rows.0.clone(), rows.1.clone(), rows.2.clone(), vec![]).is_err());
        // Class index out of range.
        assert!(
            Demand::clustered(rows.0.clone(), rows.1.clone(), rows.2.clone(), vec![0, 1]).is_err()
        );
        // Matrix validation still applies.
        assert!(
            Demand::clustered(vec![vec![-1.0]], vec![vec![1.0]], vec![vec![0.1]], vec![0]).is_err()
        );
    }

    #[test]
    fn generate_clustered_scales_with_classes_not_users() {
        let cfg = DemandConfig::paper_defaults();
        let d = cfg
            .generate_clustered(10_000, 6, 4, &mut StdRng::seed_from_u64(3))
            .unwrap();
        assert_eq!(d.num_users(), 10_000);
        assert_eq!(d.num_classes(), 4);
        // Round-robin assignment.
        assert_eq!(d.user_classes()[6], 2);
        // Rows are drawn exactly as `generate` draws them for 4 users.
        let reference = cfg.generate(4, 6, &mut StdRng::seed_from_u64(3)).unwrap();
        for c in 0..4 {
            for i in 0..6 {
                assert_eq!(
                    d.probability(UserId(c), ModelId(i)).unwrap().to_bits(),
                    reference
                        .probability(UserId(c), ModelId(i))
                        .unwrap()
                        .to_bits()
                );
            }
        }
        assert!(cfg
            .generate_clustered(0, 6, 4, &mut StdRng::seed_from_u64(3))
            .is_err());
        assert!(cfg
            .generate_clustered(10, 6, 0, &mut StdRng::seed_from_u64(3))
            .is_err());
    }

    #[test]
    fn degenerate_ranges_are_allowed() {
        let mut cfg = DemandConfig::paper_defaults();
        cfg.deadline_range_s = (0.75, 0.75);
        cfg.inference_range_s = (0.05, 0.05);
        let mut rng = StdRng::seed_from_u64(1);
        let d = cfg.generate(3, 4, &mut rng).unwrap();
        assert_eq!(d.deadline_s(UserId(0), ModelId(0)).unwrap(), 0.75);
        assert_eq!(d.inference_s(UserId(2), ModelId(3)).unwrap(), 0.05);
    }
}

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
//! # Layout
//!
//! Every per-`(user, model)` table is one row-major array with stride
//! `I`: row `r`'s entries sit at `[r · I, (r + 1) · I)`, so a lookup is
//! one indexed load instead of a row pointer and then the entry. The
//! popularity `p` is one `f64` array; the budget `T̄` and the inference
//! time `t` are interleaved as `[T̄, t]` pairs, because the serve path's
//! candidate kernel reads both for every request it scores. Rows are
//! stored per *demand class* (see [`Demand::clustered`]), and the
//! [`DemandEstimate`] weights use the same row-major layout.
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
    /// `I`, the stride of every row.
    num_models: usize,
    /// `probabilities[r · I + i]` = `p_{k,i}` for every user `k` of
    /// class `r`. Rows need not be normalised: the objective of Eq. (2)
    /// divides by the total mass.
    probabilities: Vec<f64>,
    /// `budgets_s[r · I + i]` = `[T̄_{k,i}, t_{k,i}]` in seconds: the
    /// end-to-end budget and the on-device inference time.
    budgets_s: Vec<[f64; 2]>,
    /// User `k` reads row `user_class[k]`.
    user_class: Vec<u32>,
}

impl Demand {
    /// Creates a demand description from explicit row-major matrices of
    /// `num_models` columns, one row per user.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::DimensionMismatch`] if the three matrices do
    /// not have identical shapes or are empty, and
    /// [`ScenarioError::InvalidValue`] if a probability is negative/non-finite
    /// or a latency is non-positive/non-finite.
    pub fn new(
        num_models: usize,
        probabilities: Vec<f64>,
        deadlines_s: &[f64],
        inference_s: &[f64],
    ) -> Result<Self, ScenarioError> {
        if deadlines_s.len() != probabilities.len() || inference_s.len() != probabilities.len() {
            return Err(ScenarioError::DimensionMismatch {
                reason: format!(
                    "probabilities/deadlines/inference hold {}/{}/{} entries",
                    probabilities.len(),
                    deadlines_s.len(),
                    inference_s.len()
                ),
            });
        }
        let budgets_s = deadlines_s
            .iter()
            .zip(inference_s)
            .map(|(&d, &t)| [d, t])
            .collect();
        Self::from_rows(num_models, probabilities, budgets_s)
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
        num_models: usize,
        probabilities: Vec<f64>,
        deadlines_s: &[f64],
        inference_s: &[f64],
        user_class: Vec<u32>,
    ) -> Result<Self, ScenarioError> {
        Self::new(num_models, probabilities, deadlines_s, inference_s)?
            .with_user_classes(user_class)
    }

    /// Validates row-major class rows of `num_models` columns; user `k`
    /// reads row `k`.
    fn from_rows(
        num_models: usize,
        probabilities: Vec<f64>,
        budgets_s: Vec<[f64; 2]>,
    ) -> Result<Self, ScenarioError> {
        if num_models == 0 || probabilities.is_empty() {
            return Err(ScenarioError::DimensionMismatch {
                reason: "demand matrices must be non-empty".into(),
            });
        }
        if !probabilities.len().is_multiple_of(num_models) || budgets_s.len() != probabilities.len()
        {
            return Err(ScenarioError::DimensionMismatch {
                reason: format!(
                    "{} probabilities and {} budgets are not rows of {num_models} models",
                    probabilities.len(),
                    budgets_s.len()
                ),
            });
        }
        if let Some(&p) = probabilities.iter().find(|p| !p.is_finite() || **p < 0.0) {
            return Err(ScenarioError::InvalidValue {
                name: "request probability",
                value: p,
            });
        }
        for (j, name) in [(0, "deadline"), (1, "inference latency")] {
            if let Some(b) = budgets_s.iter().find(|b| !b[j].is_finite() || b[j] <= 0.0) {
                return Err(ScenarioError::InvalidValue { name, value: b[j] });
            }
        }
        let rows = probabilities.len() / num_models;
        Ok(Self {
            num_models,
            probabilities,
            budgets_s,
            user_class: (0..rows as u32).collect(),
        })
    }

    /// These rows under the class map `user_class`.
    fn with_user_classes(self, user_class: Vec<u32>) -> Result<Self, ScenarioError> {
        if user_class.is_empty() {
            return Err(ScenarioError::DimensionMismatch {
                reason: "clustered demand needs at least one user".into(),
            });
        }
        let num_classes = self.num_classes();
        if let Some(&bad) = user_class.iter().find(|&&c| c as usize >= num_classes) {
            return Err(ScenarioError::DimensionMismatch {
                reason: format!("user class {bad} out of range for {num_classes} classes"),
            });
        }
        Ok(Self { user_class, ..self })
    }

    /// Number of users `K`.
    pub fn num_users(&self) -> usize {
        self.user_class.len()
    }

    /// Number of demand-class rows actually stored (equals
    /// [`Demand::num_users`] for [`Demand::new`]).
    pub fn num_classes(&self) -> usize {
        self.probabilities.len() / self.num_models
    }

    /// The class map: `user_classes()[k]` names user `k`'s class.
    pub fn user_classes(&self) -> &[u32] {
        &self.user_class
    }

    /// The stored popularity row of `class`: `p_{k,·}` of every user `k`
    /// of that class. Lets consumers that build per-row state — e.g.
    /// the workload's CDF tables — scale with [`Demand::num_classes`]
    /// rather than [`Demand::num_users`].
    ///
    /// # Panics
    ///
    /// Panics if `class >= num_classes()`.
    pub fn class_probabilities(&self, class: usize) -> &[f64] {
        &self.probabilities[class * self.num_models..][..self.num_models]
    }

    /// This demand with its popularity rows replaced by `probabilities`
    /// (row-major, one row per stored class); deadlines, inference
    /// latencies and the class map are kept.
    ///
    /// # Errors
    ///
    /// Fails like [`Demand::clustered`] for rows of the wrong shape or
    /// invalid probabilities.
    pub fn with_class_probabilities(&self, probabilities: Vec<f64>) -> Result<Self, ScenarioError> {
        Self::from_rows(self.num_models, probabilities, self.budgets_s.clone())?
            .with_user_classes(self.user_class.clone())
    }

    /// The row-major index of `(user, model)`, or an error for unknown
    /// indices.
    fn entry(&self, user: UserId, model: ModelId) -> Result<usize, ScenarioError> {
        let row = self
            .user_class
            .get(user.index())
            .ok_or(ScenarioError::IndexOutOfRange {
                entity: "user",
                index: user.index(),
                len: self.user_class.len(),
            })?;
        if model.index() >= self.num_models {
            return Err(ScenarioError::IndexOutOfRange {
                entity: "model",
                index: model.index(),
                len: self.num_models,
            });
        }
        Ok(*row as usize * self.num_models + model.index())
    }

    /// Number of models `I`.
    pub fn num_models(&self) -> usize {
        self.num_models
    }

    /// Request probability `p_{k,i}`.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::IndexOutOfRange`] for unknown indices.
    pub fn probability(&self, user: UserId, model: ModelId) -> Result<f64, ScenarioError> {
        Ok(self.probabilities[self.entry(user, model)?])
    }

    /// QoS budget `T̄_{k,i}` in seconds.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::IndexOutOfRange`] for unknown indices.
    pub fn deadline_s(&self, user: UserId, model: ModelId) -> Result<f64, ScenarioError> {
        Ok(self.budget_s(user, model)?[0])
    }

    /// On-device inference latency `t_{k,i}` in seconds.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::IndexOutOfRange`] for unknown indices.
    pub fn inference_s(&self, user: UserId, model: ModelId) -> Result<f64, ScenarioError> {
        Ok(self.budget_s(user, model)?[1])
    }

    /// `[T̄_{k,i}, t_{k,i}]`: the QoS budget and the on-device inference
    /// latency in seconds, read together.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::IndexOutOfRange`] for unknown indices.
    pub fn budget_s(&self, user: UserId, model: ModelId) -> Result<[f64; 2], ScenarioError> {
        Ok(self.budgets_s[self.entry(user, model)?])
    }

    /// Total request mass `Σ_k Σ_i p_{k,i}` — the denominator of Eq. (2),
    /// accumulated user-major, model-minor.
    pub fn total_probability_mass(&self) -> f64 {
        let mut acc = 0.0;
        for &c in &self.user_class {
            for &p in self.class_probabilities(c as usize) {
                acc += p;
            }
        }
        acc
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
/// estimator), row-major like [`Demand`]'s tables. Satisfies
/// [`DemandView`], so the placement solvers accept it wherever they
/// accept the ground-truth [`Demand`].
#[derive(Debug, Clone, PartialEq)]
pub struct DemandEstimate {
    /// `I`, the stride of every row.
    num_models: usize,
    /// `weights[k · I + i]` — unnormalised request weight of `(k, i)`.
    weights: Vec<f64>,
    /// Cached `Σ weights`.
    total: f64,
}

impl DemandEstimate {
    /// Creates an estimate from an explicit row-major weight matrix of
    /// `num_models` columns.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::DimensionMismatch`] for an empty matrix
    /// or one that is not whole rows, and [`ScenarioError::InvalidValue`]
    /// for a negative or non-finite weight. An all-zero matrix is
    /// allowed (an estimator that has observed nothing): the objective
    /// treats it as zero mass.
    pub fn new(num_models: usize, weights: Vec<f64>) -> Result<Self, ScenarioError> {
        if num_models == 0 || weights.is_empty() {
            return Err(ScenarioError::DimensionMismatch {
                reason: "estimate matrix must be non-empty".into(),
            });
        }
        if !weights.len().is_multiple_of(num_models) {
            return Err(ScenarioError::DimensionMismatch {
                reason: format!(
                    "{} estimate weights are not rows of {num_models} models",
                    weights.len()
                ),
            });
        }
        let mut total = 0.0;
        for &w in &weights {
            if !w.is_finite() || w < 0.0 {
                return Err(ScenarioError::InvalidValue {
                    name: "estimated request weight",
                    value: w,
                });
            }
            total += w;
        }
        Ok(Self {
            num_models,
            weights,
            total,
        })
    }

    /// The weight of `(user, model)`, zero for out-of-range indices.
    pub fn weight(&self, user: UserId, model: ModelId) -> f64 {
        if model.index() >= self.num_models {
            return 0.0;
        }
        self.weights
            .get(user.index() * self.num_models + model.index())
            .copied()
            .unwrap_or(0.0)
    }
}

impl DemandView for DemandEstimate {
    fn num_users(&self) -> usize {
        self.weights.len() / self.num_models
    }

    fn num_models(&self) -> usize {
        self.num_models
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
        // Every deadline, then every inference time, each user-major.
        let mut budgets_s = vec![[0.0; 2]; num_users * num_models];
        for (j, range) in [self.deadline_range_s, self.inference_range_s]
            .into_iter()
            .enumerate()
        {
            for budget in &mut budgets_s {
                budget[j] = sample_range(rng, range);
            }
        }
        Demand::from_rows(num_models, probabilities, budgets_s)
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
        let user_class = (0..num_users).map(|k| (k % num_classes) as u32).collect();
        self.generate(num_classes, num_models, rng)?
            .with_user_classes(user_class)
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
        self.generate(num_classes, num_models, rng)?
            .with_user_classes(user_class)
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
            2,
            vec![0.5, 0.3, 0.2, 0.8],
            &[1.0, 0.7, 0.6, 0.9],
            &[0.05, 0.05, 0.1, 0.1],
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
        assert_eq!(d.budget_s(UserId(0), ModelId(1)).unwrap(), [0.7, 0.05]);
        assert_eq!(d.class_probabilities(1), [0.2, 0.8]);
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
        assert!(Demand::new(1, vec![], &[], &[]).is_err());
        assert!(Demand::new(0, vec![], &[], &[]).is_err());
        // Mismatched shapes, and entries that are not whole rows.
        assert!(Demand::new(2, vec![0.1, 0.2], &[1.0], &[0.1, 0.1]).is_err());
        assert!(Demand::new(2, vec![0.1, 0.2, 0.3], &[1.0; 3], &[0.1; 3]).is_err());
        // Negative probability.
        assert!(Demand::new(1, vec![-0.1], &[1.0], &[0.1]).is_err());
        // Zero deadline.
        assert!(Demand::new(1, vec![0.1], &[0.0], &[0.1]).is_err());
        // Non-finite inference latency.
        assert!(Demand::new(1, vec![0.1], &[1.0], &[f64::NAN]).is_err());
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
        let e = DemandEstimate::new(2, vec![2.0, 0.0, 0.5, 1.5]).unwrap();
        assert_eq!(DemandView::num_users(&e), 2);
        assert_eq!(DemandView::num_models(&e), 2);
        assert_eq!(e.weight(UserId(0), ModelId(0)), 2.0);
        assert_eq!(e.weight(UserId(1), ModelId(1)), 1.5);
        assert_eq!(e.weight(UserId(5), ModelId(0)), 0.0);
        // A model past the row never reads into the next row.
        assert_eq!(e.weight(UserId(0), ModelId(2)), 0.0);
        assert!((e.total_mass() - 4.0).abs() < 1e-12);
        // Zero mass is allowed; structural and value errors are not.
        assert!(DemandEstimate::new(3, vec![0.0; 6]).is_ok());
        assert!(DemandEstimate::new(1, vec![]).is_err());
        assert!(DemandEstimate::new(0, vec![]).is_err());
        assert!(DemandEstimate::new(2, vec![1.0, 1.0, 2.0]).is_err());
        assert!(DemandEstimate::new(1, vec![-0.1]).is_err());
        assert!(DemandEstimate::new(1, vec![f64::NAN]).is_err());
    }

    #[test]
    fn clustered_identity_matches_singleton_bit_for_bit() {
        let d = small_demand();
        let c = Demand::clustered(
            2,
            vec![0.5, 0.3, 0.2, 0.8],
            &[1.0, 0.7, 0.6, 0.9],
            &[0.05, 0.05, 0.1, 0.1],
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
            2,
            vec![0.9, 0.1, 0.4, 0.6],
            &[1.0, 1.0, 0.5, 0.5],
            &[0.05, 0.05, 0.02, 0.02],
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
        let class = |map| Demand::clustered(2, vec![0.5, 0.5], &[1.0, 1.0], &[0.05, 0.05], map);
        assert!(class(vec![0, 0]).is_ok());
        // Empty map.
        assert!(class(vec![]).is_err());
        // Class index out of range.
        assert!(class(vec![0, 1]).is_err());
        // Matrix validation still applies.
        assert!(Demand::clustered(1, vec![-1.0], &[1.0], &[0.1], vec![0]).is_err());
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

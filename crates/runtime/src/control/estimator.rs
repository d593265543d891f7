//! Online demand estimation from the served event stream.
//!
//! The offline solvers optimise against the ground-truth probabilities
//! `p_{k,i}`; a live controller only sees *requests*. The
//! [`DemandEstimator`] counts every request it is shown per
//! `(user-class, model)` pair — a user class is one user here; users
//! sharing a demand profile simply converge to proportional rows — and
//! folds the counts into an exponentially weighted moving average once
//! per control epoch. The EWMA rates form a
//! [`DemandEstimate`], the unnormalised demand surface the re-placement
//! planner feeds straight into the shared-block-aware lazy greedy: the
//! objective of Eq. (2) normalises by total mass, so request *rates*
//! work exactly like probabilities.
//!
//! # Cost model
//!
//! The estimator sits on the engine's per-request hot path, and its
//! `K × I` plane is the one working set that does not fit in cache at
//! city scale — a naive per-request `counts[k][i] += 1` costs a cache
//! miss per request and was measured at ~10% of replay throughput.
//! Recording therefore only **appends the flat slot id to an epoch
//! log** (a sequential, cache-resident write); the epoch roll folds the
//! log into the rates in one batch (order-independent: each occurrence
//! adds the same constant to its slot), so the plane is only touched
//! once per tick instead of once per request. The uniform EWMA decay
//! `rate ← (1 − α) · rate` is likewise a global scalar kept as one lazy
//! `scale` factor, so an epoch roll is `O(pairs touched)`, not
//! `O(K · I)`; the full plane is
//! only walked when an estimate is materialised for a re-plan. The
//! `adaptive_serving` bench pins the resulting controller overhead at
//! ≤ 5% of steady-state replay throughput.
//!
//! Everything here is a pure function of the recorded request sequence
//! and the epoch-roll times — no clocks, no randomness — which is what
//! keeps controller-enabled runs byte-identical across same-seed
//! replays.

use trimcaching_modellib::ModelId;
use trimcaching_scenario::{DemandEstimate, UserId};

use crate::error::RuntimeError;

/// Renormalise the lazily scaled rates before `scale` underflows
/// (`0.8^epochs` crosses this after roughly 1 450 epochs).
const SCALE_FLOOR: f64 = 1e-140;

/// Per-`(user, model)` EWMA request-rate estimator with a sequential
/// epoch log and lazily applied global decay (see the module docs for
/// the cost model).
#[derive(Debug, Clone, PartialEq)]
pub struct DemandEstimator {
    /// EWMA smoothing factor in `(0, 1]`: weight of the latest epoch.
    alpha: f64,
    num_users: usize,
    num_models: usize,
    /// Flat slot ids of the current epoch's requests, in arrival order.
    epoch_log: Vec<u32>,
    /// Scaled EWMA rates, row-major: the true rate of a slot is
    /// `scale * rates[slot]`.
    rates: Vec<f64>,
    /// Lazy global decay factor.
    scale: f64,
    /// Whether at least one epoch has been folded in (the first epoch
    /// seeds the EWMA directly instead of decaying from zero).
    primed: bool,
    total_requests: u64,
    epochs_rolled: u64,
}

impl DemandEstimator {
    /// Creates an empty estimator over `num_users × num_models` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] when either dimension is
    /// zero, the plane exceeds `u32` slot ids, or `alpha` is outside
    /// `(0, 1]`.
    pub fn new(num_users: usize, num_models: usize, alpha: f64) -> Result<Self, RuntimeError> {
        if num_users == 0 || num_models == 0 {
            return Err(RuntimeError::InvalidConfig {
                reason: format!(
                    "estimator needs non-empty dimensions, got {num_users}x{num_models}"
                ),
            });
        }
        if num_users
            .checked_mul(num_models)
            .is_none_or(|n| n > u32::MAX as usize)
        {
            return Err(RuntimeError::InvalidConfig {
                reason: format!(
                    "estimator plane {num_users}x{num_models} exceeds the u32 slot space"
                ),
            });
        }
        if !(alpha.is_finite() && alpha > 0.0 && alpha <= 1.0) {
            return Err(RuntimeError::InvalidConfig {
                reason: format!("EWMA alpha must lie in (0, 1], got {alpha}"),
            });
        }
        Ok(Self {
            alpha,
            num_users,
            num_models,
            epoch_log: Vec::new(),
            rates: vec![0.0; num_users * num_models],
            scale: 1.0,
            primed: false,
            total_requests: 0,
            epochs_rolled: 0,
        })
    }

    /// Records one request (hit, miss or rejected — rejections are
    /// demand too). Out-of-range pairs are ignored. A sequential log
    /// append — the plane itself is untouched until the epoch rolls.
    pub fn record(&mut self, user: UserId, model: ModelId) {
        if user.index() >= self.num_users || model.index() >= self.num_models {
            return;
        }
        self.epoch_log
            .push((user.index() * self.num_models + model.index()) as u32);
        self.total_requests += 1;
    }

    /// Closes the current epoch: folds the epoch log into the EWMA
    /// rates and clears it. The first observed epoch seeds the EWMA
    /// outright so early re-plans are not biased towards zero demand.
    /// Empty epochs still decay the rates (through the lazy scale) —
    /// silence is evidence.
    pub fn roll_epoch(&mut self) {
        self.epochs_rolled += 1;
        if !self.primed && self.epoch_log.is_empty() {
            // Nothing observed yet at all: rolling an all-zero epoch
            // would only delay priming.
            return;
        }
        let fold = if self.primed {
            self.scale *= 1.0 - self.alpha;
            self.alpha / self.scale
        } else {
            // Seeding epoch: the EWMA starts at the observed counts.
            1.0
        };
        // Fold order is irrelevant: every occurrence of a slot adds the
        // same `fold` constant to that slot's accumulator, so any scan
        // order produces bit-identical rates — no sort needed.
        for &slot in &self.epoch_log {
            self.rates[slot as usize] += fold;
        }
        self.epoch_log.clear();
        self.primed = true;
        if self.scale < SCALE_FLOOR {
            for rate in &mut self.rates {
                *rate *= self.scale;
            }
            self.scale = 1.0;
        }
    }

    /// The current demand estimate: EWMA rates plus the still-open
    /// epoch's raw counts (so a re-plan fired mid-epoch does not ignore
    /// the freshest — often the most drifted — observations).
    ///
    /// # Errors
    ///
    /// Never fails on an estimator constructed through
    /// [`DemandEstimator::new`]; the `Result` guards the estimate
    /// invariants.
    pub fn estimate(&self) -> Result<DemandEstimate, RuntimeError> {
        let mut flat: Vec<f64> = self.rates.iter().map(|r| self.scale * r).collect();
        for &slot in &self.epoch_log {
            flat[slot as usize] += self.alpha;
        }
        DemandEstimate::new(self.num_models, flat).map_err(RuntimeError::from)
    }

    /// Requests recorded since construction.
    pub fn total_requests(&self) -> u64 {
        self.total_requests
    }

    /// Epochs rolled since construction.
    pub fn epochs_rolled(&self) -> u64 {
        self.epochs_rolled
    }

    /// Captures the estimator's full state for checkpointing (including
    /// the open epoch log and the lazy scale, so a restored estimator
    /// folds future epochs bit-identically).
    pub(crate) fn snapshot(&self) -> EstimatorSnapshot {
        EstimatorSnapshot {
            alpha: self.alpha,
            num_users: self.num_users as u64,
            num_models: self.num_models as u64,
            epoch_log: self.epoch_log.clone(),
            rates: self.rates.clone(),
            scale: self.scale,
            primed: self.primed,
            total_requests: self.total_requests,
            epochs_rolled: self.epochs_rolled,
        }
    }

    /// Rebuilds an estimator from [`DemandEstimator::snapshot`] output.
    pub(crate) fn restore(s: EstimatorSnapshot) -> Self {
        Self {
            alpha: s.alpha,
            num_users: s.num_users as usize,
            num_models: s.num_models as usize,
            epoch_log: s.epoch_log,
            rates: s.rates,
            scale: s.scale,
            primed: s.primed,
            total_requests: s.total_requests,
            epochs_rolled: s.epochs_rolled,
        }
    }
}

/// The checkpointable state of a [`DemandEstimator`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct EstimatorSnapshot {
    pub alpha: f64,
    pub num_users: u64,
    pub num_models: u64,
    pub epoch_log: Vec<u32>,
    pub rates: Vec<f64>,
    pub scale: f64,
    pub primed: bool,
    pub total_requests: u64,
    pub epochs_rolled: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weight(e: &DemandEstimator, k: usize, i: usize) -> f64 {
        e.estimate().unwrap().weight(UserId(k), ModelId(i))
    }

    #[test]
    fn first_epoch_seeds_the_ewma_directly() {
        let mut e = DemandEstimator::new(2, 3, 0.5).unwrap();
        for _ in 0..4 {
            e.record(UserId(0), ModelId(1));
        }
        e.record(UserId(1), ModelId(2));
        e.roll_epoch();
        assert_eq!(weight(&e, 0, 1), 4.0);
        assert_eq!(weight(&e, 1, 2), 1.0);
        assert_eq!(weight(&e, 0, 0), 0.0);
        assert_eq!(e.total_requests(), 5);
        assert_eq!(e.epochs_rolled(), 1);
    }

    #[test]
    fn later_epochs_decay_exponentially() {
        let mut e = DemandEstimator::new(1, 2, 0.5).unwrap();
        for _ in 0..8 {
            e.record(UserId(0), ModelId(0));
        }
        e.roll_epoch(); // rate = 8
        e.roll_epoch(); // empty epoch decays: rate = 4
        assert_eq!(weight(&e, 0, 0), 4.0);
        for _ in 0..2 {
            e.record(UserId(0), ModelId(1));
        }
        e.roll_epoch(); // m0: 2, m1: 1
        assert_eq!(weight(&e, 0, 0), 2.0);
        assert_eq!(weight(&e, 0, 1), 1.0);
    }

    #[test]
    fn open_epoch_counts_contribute_to_the_estimate() {
        let mut e = DemandEstimator::new(1, 2, 0.5).unwrap();
        e.record(UserId(0), ModelId(0));
        e.roll_epoch();
        e.record(UserId(0), ModelId(1));
        // Rolled rate for m0, alpha-weighted open count for m1.
        assert_eq!(weight(&e, 0, 0), 1.0);
        assert_eq!(weight(&e, 0, 1), 0.5);
    }

    #[test]
    fn unprimed_empty_rolls_do_not_poison_the_seed() {
        let mut e = DemandEstimator::new(1, 1, 0.25).unwrap();
        e.roll_epoch();
        e.roll_epoch();
        e.record(UserId(0), ModelId(0));
        e.roll_epoch();
        // The first *observed* epoch still seeds at full weight.
        assert_eq!(weight(&e, 0, 0), 1.0);
        assert_eq!(e.epochs_rolled(), 3);
    }

    #[test]
    fn lazy_scale_matches_the_direct_ewma_over_many_epochs() {
        // Reference: the textbook fold applied eagerly every epoch.
        let alpha = 0.3;
        let mut e = DemandEstimator::new(1, 2, alpha).unwrap();
        let mut reference = [0.0f64; 2];
        let mut primed = false;
        for epoch in 0..200u64 {
            // A deterministic, bursty pattern: slot 0 every epoch,
            // slot 1 every third epoch.
            let c0 = (epoch % 5) as f64;
            let c1 = if epoch % 3 == 0 { 2.0 } else { 0.0 };
            for _ in 0..c0 as usize {
                e.record(UserId(0), ModelId(0));
            }
            for _ in 0..c1 as usize {
                e.record(UserId(0), ModelId(1));
            }
            if primed {
                reference[0] = alpha * c0 + (1.0 - alpha) * reference[0];
                reference[1] = alpha * c1 + (1.0 - alpha) * reference[1];
            } else if c0 > 0.0 || c1 > 0.0 {
                reference = [c0, c1];
                primed = true;
            }
            e.roll_epoch();
            assert!(
                (weight(&e, 0, 0) - reference[0]).abs() <= 1e-9 * reference[0].max(1.0),
                "epoch {epoch}: slot 0"
            );
            assert!(
                (weight(&e, 0, 1) - reference[1]).abs() <= 1e-9 * reference[1].max(1.0),
                "epoch {epoch}: slot 1"
            );
        }
    }

    #[test]
    fn scale_renormalisation_survives_long_idle_stretches() {
        let mut e = DemandEstimator::new(1, 1, 0.5).unwrap();
        e.record(UserId(0), ModelId(0));
        e.roll_epoch();
        // 0.5^2000 underflows any direct representation; the lazy scale
        // renormalises instead, and the weight decays to exact zero-ish
        // without ever going negative or NaN.
        for _ in 0..2_000 {
            e.roll_epoch();
        }
        let w = weight(&e, 0, 0);
        assert!((0.0..1e-100).contains(&w), "weight {w}");
        // The estimator still works after renormalisation.
        e.record(UserId(0), ModelId(0));
        e.roll_epoch();
        assert!((weight(&e, 0, 0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn out_of_range_records_are_ignored() {
        let mut e = DemandEstimator::new(2, 2, 1.0).unwrap();
        e.record(UserId(9), ModelId(0));
        e.record(UserId(0), ModelId(9));
        assert_eq!(e.total_requests(), 0);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        assert!(DemandEstimator::new(0, 3, 0.5).is_err());
        assert!(DemandEstimator::new(3, 0, 0.5).is_err());
        assert!(DemandEstimator::new(1, 1, 0.0).is_err());
        assert!(DemandEstimator::new(1, 1, 1.5).is_err());
        assert!(DemandEstimator::new(1, 1, f64::NAN).is_err());
        assert!(DemandEstimator::new(1 << 20, 1 << 13, 0.5).is_err());
    }
}

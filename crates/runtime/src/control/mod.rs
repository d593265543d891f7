//! Online re-placement control: closing the loop between serving and
//! placement during a live run.
//!
//! The offline pipeline solves the paper's placement on a frozen demand
//! snapshot; Section IV-A hand-waves the rest — "re-run when performance
//! degrades". This subsystem makes that loop a first-class, fully
//! deterministic part of the runtime:
//!
//! * [`estimator`] — per-`(user-class, model)` EWMA request-rate
//!   estimation from the served event stream, surfaced as the
//!   [`DemandEstimate`] demand
//!   view (the joint model-set adaptation of arXiv:2411.08672, driven
//!   by observations instead of oracles);
//! * [`drift`] — sustained-degradation detection over the windowed
//!   hit-ratio / p95-latency trace, with patience, cool-down and an
//!   optional periodic re-plan timer;
//! * [`planner`] — the re-placement solve: the same shared-block-aware
//!   CELF lazy greedy, run against the *estimated* demand on the
//!   *current* (mobility-evolved) snapshot;
//! * [`reconcile`] — the staged per-server diff of target and live
//!   caches: missing target models become ordinary block-granular
//!   fills over the congestion-aware backhaul links (the affordable
//!   fine-grained updates of arXiv:2509.19341); displaced models are
//!   evicted lazily, coldest-first, only when a staged fill needs room.
//!
//! The engine drives all of it from [`EventKind::ControlTick`] events,
//! so a controller-enabled run remains a pure function of
//! `(scenario, policy, config, workload)` — same-seed runs are
//! byte-identical, controller and all.
//!
//! [`EventKind::ControlTick`]: crate::event::EventKind::ControlTick

pub mod drift;
pub mod estimator;
pub mod planner;
pub mod reconcile;

use trimcaching_modellib::ModelId;
use trimcaching_scenario::{DemandEstimate, UserId};

use crate::error::RuntimeError;
use crate::metrics::{LatencyHistogram, ServeMetrics};

pub use drift::{DriftConfig, DriftDetector, DriftVerdict, ReplanReason};
pub use estimator::DemandEstimator;
pub(crate) use planner::plan_target_masked_on;
pub use planner::{plan_target, plan_target_masked};
pub use reconcile::{diff, next_victim, ServerDelta};

/// Configuration of the online re-placement controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlConfig {
    /// Control-loop period in seconds: every tick rolls the estimator
    /// epoch and feeds the drift detector.
    pub tick_s: f64,
    /// EWMA smoothing of the demand estimator (weight of the newest
    /// epoch's request counts).
    pub estimator_alpha: f64,
    /// Requests the estimator must have seen before the first re-plan
    /// may fire (an estimate built on a handful of requests would thrash
    /// the caches).
    pub min_observed_requests: u64,
    /// Drift detection / re-plan trigger parameters.
    pub drift: DriftConfig,
}

impl ControlConfig {
    /// Defaults matched to [`ServeConfig::paper_defaults`]: 30 s ticks,
    /// moderately reactive estimator, 15% sustained-drop trigger.
    ///
    /// [`ServeConfig::paper_defaults`]: crate::engine::ServeConfig::paper_defaults
    pub fn paper_defaults() -> Self {
        Self {
            tick_s: 30.0,
            estimator_alpha: 0.4,
            min_observed_requests: 100,
            drift: DriftConfig::paper_defaults(),
        }
    }

    /// Sets the control-loop period.
    pub fn with_tick_s(mut self, tick_s: f64) -> Self {
        self.tick_s = tick_s;
        self
    }

    /// Sets the drift parameters.
    pub fn with_drift(mut self, drift: DriftConfig) -> Self {
        self.drift = drift;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] naming the first invalid
    /// field.
    pub fn validate(&self) -> Result<(), RuntimeError> {
        if !(self.tick_s.is_finite() && self.tick_s > 0.0) {
            return Err(RuntimeError::InvalidConfig {
                reason: format!(
                    "control tick must be positive and finite, got {}",
                    self.tick_s
                ),
            });
        }
        if !(self.estimator_alpha.is_finite()
            && self.estimator_alpha > 0.0
            && self.estimator_alpha <= 1.0)
        {
            return Err(RuntimeError::InvalidConfig {
                reason: format!(
                    "estimator alpha must lie in (0, 1], got {}",
                    self.estimator_alpha
                ),
            });
        }
        self.drift.validate()
    }
}

impl Default for ControlConfig {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

/// What one control tick decided.
#[derive(Debug, Clone, PartialEq)]
pub struct TickDecision {
    /// Fire a re-plan now, for this reason.
    pub replan: Option<ReplanReason>,
    /// A pending recovery completed: seconds since its re-plan.
    pub recovered_after_s: Option<f64>,
}

/// The live controller state the engine carries when control is on:
/// demand estimator, drift detector, and the last control tick's
/// snapshot of the engine's cumulative metrics. Per-tick windows are
/// *diffed* out of the metrics the engine records anyway — the only
/// per-request work the controller adds to the hot path is the
/// estimator's log append.
#[derive(Debug, Clone, PartialEq)]
pub struct Controller {
    config: ControlConfig,
    estimator: DemandEstimator,
    drift: DriftDetector,
    /// Cumulative request count at the last tick.
    seen_requests: u64,
    /// Cumulative hit count at the last tick.
    seen_hits: u64,
    /// Cumulative latency histogram at the last tick.
    seen_latency: LatencyHistogram,
}

impl Controller {
    /// Creates a controller for a `num_users × num_models` scenario.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] for an invalid
    /// configuration or empty dimensions.
    pub fn new(
        config: ControlConfig,
        num_users: usize,
        num_models: usize,
    ) -> Result<Self, RuntimeError> {
        config.validate()?;
        Ok(Self {
            config,
            estimator: DemandEstimator::new(num_users, num_models, config.estimator_alpha)?,
            drift: DriftDetector::new(config.drift)?,
            seen_requests: 0,
            seen_hits: 0,
            seen_latency: LatencyHistogram::new(),
        })
    }

    /// The controller's configuration.
    pub fn config(&self) -> &ControlConfig {
        &self.config
    }

    /// Feeds one request into the demand estimator — the controller's
    /// entire per-request hot-path cost (hit/latency accounting is
    /// diffed out of the engine's own metrics at tick time).
    pub fn on_request(&mut self, user: UserId, model: ModelId) {
        self.estimator.record(user, model);
    }

    /// Runs one control tick at `now_s`: diffs the tick's hit ratio and
    /// p95 out of the engine's cumulative `metrics`, rolls the estimator
    /// epoch, feeds the drift detector, and reports whether a re-plan
    /// should fire (the minimum-observations gate applies here).
    pub fn tick(&mut self, now_s: f64, metrics: &ServeMetrics) -> TickDecision {
        let tick_requests = metrics.requests - self.seen_requests;
        let tick_hits = metrics.hits - self.seen_hits;
        let tick_hit_ratio = if tick_requests > 0 {
            Some(tick_hits as f64 / tick_requests as f64)
        } else {
            None
        };
        let tick_p95_s = metrics
            .latency
            .delta_since(&self.seen_latency)
            .quantile_s(0.95);
        self.seen_requests = metrics.requests;
        self.seen_hits = metrics.hits;
        self.seen_latency = metrics.latency.clone();
        self.estimator.roll_epoch();
        let verdict = self.drift.observe(now_s, tick_hit_ratio, tick_p95_s);
        let replan = verdict
            .replan
            .filter(|_| self.estimator.total_requests() >= self.config.min_observed_requests);
        TickDecision {
            replan,
            recovered_after_s: verdict.recovered_after_s,
        }
    }

    /// The current demand estimate (EWMA rates plus the open epoch).
    ///
    /// # Errors
    ///
    /// Propagates estimate-construction errors (never fires for a
    /// controller built through [`Controller::new`]).
    pub fn estimate(&self) -> Result<DemandEstimate, RuntimeError> {
        self.estimator.estimate()
    }

    /// Notes that a re-plan was carried out (starts the drift cool-down
    /// and the recovery stopwatch).
    pub fn note_replan(&mut self, now_s: f64) {
        self.drift.note_replan(now_s);
    }

    /// Requests observed since the run started.
    pub fn observed_requests(&self) -> u64 {
        self.estimator.total_requests()
    }

    /// Captures the controller's full state for checkpointing.
    pub(crate) fn snapshot(&self) -> ControllerSnapshot {
        ControllerSnapshot {
            config: self.config,
            estimator: self.estimator.snapshot(),
            drift: self.drift.snapshot(),
            seen_requests: self.seen_requests,
            seen_hits: self.seen_hits,
            seen_latency: self.seen_latency.clone(),
        }
    }

    /// Rebuilds a controller from [`Controller::snapshot`] output.
    pub(crate) fn restore(s: ControllerSnapshot) -> Self {
        Self {
            config: s.config,
            estimator: DemandEstimator::restore(s.estimator),
            drift: DriftDetector::restore(s.drift),
            seen_requests: s.seen_requests,
            seen_hits: s.seen_hits,
            seen_latency: s.seen_latency,
        }
    }
}

/// The checkpointable state of a [`Controller`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ControllerSnapshot {
    pub config: ControlConfig,
    pub estimator: estimator::EstimatorSnapshot,
    pub drift: drift::DriftSnapshot,
    pub seen_requests: u64,
    pub seen_hits: u64,
    pub seen_latency: LatencyHistogram,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RequestOutcome;

    fn config() -> ControlConfig {
        ControlConfig {
            min_observed_requests: 4,
            drift: DriftConfig {
                cooldown_s: 0.0,
                ..DriftConfig::paper_defaults()
            },
            ..ControlConfig::paper_defaults()
        }
    }

    /// Mirrors the engine: record into the cumulative metrics *and*
    /// feed the controller's estimator.
    fn request(
        c: &mut Controller,
        m: &mut ServeMetrics,
        at_s: f64,
        user: usize,
        model: usize,
        hit: bool,
        latency_s: f64,
    ) {
        let outcome = if hit {
            RequestOutcome::Hit
        } else {
            RequestOutcome::MissServed
        };
        m.record(at_s, outcome, Some(latency_s));
        c.on_request(UserId(user), ModelId(model));
    }

    #[test]
    fn ticks_diff_the_window_out_of_cumulative_metrics() {
        let mut c = Controller::new(config(), 2, 3).unwrap();
        let mut m = ServeMetrics::new(30.0);
        request(&mut c, &mut m, 1.0, 0, 1, true, 0.1);
        request(&mut c, &mut m, 2.0, 1, 2, false, 0.4);
        let d = c.tick(30.0, &m);
        assert_eq!(d.replan, None, "healthy first tick");
        assert_eq!(c.observed_requests(), 2);
        // The window reset: an empty tick carries no hit-ratio evidence.
        let d = c.tick(60.0, &m);
        assert_eq!(d.replan, None);
        // The estimate reflects the folded epoch.
        let est = c.estimate().unwrap();
        assert!(est.weight(UserId(0), ModelId(1)) > 0.0);
        assert_eq!(est.weight(UserId(0), ModelId(0)), 0.0);
    }

    #[test]
    fn min_observations_gate_replans() {
        let mut c = Controller::new(config(), 1, 2).unwrap();
        let mut m = ServeMetrics::new(30.0);
        // Establish a reference, then degrade hard — but with only
        // three observed requests the gate holds.
        for t in 0..4 {
            let at = t as f64 * 30.0;
            request(&mut c, &mut m, at, 0, 0, true, 0.1);
            assert_eq!(c.tick(at + 30.0, &m).replan, None);
        }
        // 4 requests observed; two degraded ticks fire now.
        request(&mut c, &mut m, 130.0, 0, 1, false, 0.5);
        assert_eq!(c.tick(150.0, &m).replan, None, "patience holds the first");
        request(&mut c, &mut m, 160.0, 0, 1, false, 0.5);
        let d = c.tick(180.0, &m);
        assert_eq!(d.replan, Some(ReplanReason::Drift));
        c.note_replan(180.0);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        for bad in [
            ControlConfig {
                tick_s: 0.0,
                ..ControlConfig::paper_defaults()
            },
            ControlConfig {
                tick_s: f64::NAN,
                ..ControlConfig::paper_defaults()
            },
            ControlConfig {
                estimator_alpha: 0.0,
                ..ControlConfig::paper_defaults()
            },
            ControlConfig {
                estimator_alpha: 2.0,
                ..ControlConfig::paper_defaults()
            },
            ControlConfig {
                drift: DriftConfig {
                    patience: 0,
                    ..DriftConfig::paper_defaults()
                },
                ..ControlConfig::paper_defaults()
            },
        ] {
            assert!(Controller::new(bad, 2, 2).is_err(), "{bad:?}");
        }
    }
}

//! Drift detection over the windowed hit-ratio / p95-latency trace.
//!
//! The paper's operational note (Section IV-A) is that the operator
//! re-runs the placement "when the performance degrades to a certain
//! threshold"; this module is that trigger, made precise: per control
//! tick the [`DriftDetector`] is fed the tick's hit ratio (and
//! optionally its p95 latency), maintains slow EWMA references of both,
//! and fires once the tick value stays beyond the configured relative
//! threshold for `patience` *consecutive* ticks — sustained degradation,
//! not a noisy window. A configurable epoch timer re-plans periodically
//! regardless, and a cool-down suppresses re-triggering while a staged
//! reconciliation is still landing.
//!
//! Pure function of the fed sequence: no clocks, no randomness.

use crate::error::RuntimeError;

/// Why a re-plan fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplanReason {
    /// Sustained hit-ratio degradation (or p95 inflation) versus the
    /// EWMA reference.
    Drift,
    /// The periodic re-plan timer elapsed.
    Epoch,
}

/// Configuration of the drift detector (embedded in
/// [`ControlConfig`](crate::control::ControlConfig)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Relative hit-ratio drop versus the reference that counts as a
    /// degraded tick (e.g. `0.15` = 15% below reference).
    pub degradation: f64,
    /// Relative p95-latency rise versus the reference that counts as a
    /// degraded tick (`0` disables the latency channel).
    pub latency_rise: f64,
    /// Consecutive degraded ticks required before firing.
    pub patience: u32,
    /// EWMA smoothing of the reference traces (weight of the newest
    /// tick; small = slow reference, sharper drift contrast).
    pub reference_alpha: f64,
    /// Re-plan every this many seconds regardless of drift
    /// (`0` disables the timer).
    pub replan_every_s: f64,
    /// Seconds after a re-plan during which drift cannot fire again
    /// (staged fills need time to land).
    pub cooldown_s: f64,
}

impl DriftConfig {
    /// Defaults tuned for the paper-scale serving runs: 15% sustained
    /// hit drop over two ticks, latency channel off, no epoch timer,
    /// one-minute cool-down.
    pub fn paper_defaults() -> Self {
        Self {
            degradation: 0.15,
            latency_rise: 0.0,
            patience: 2,
            reference_alpha: 0.2,
            replan_every_s: 0.0,
            cooldown_s: 60.0,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] naming the first invalid
    /// field.
    pub fn validate(&self) -> Result<(), RuntimeError> {
        for (name, value, lo, hi) in [
            ("degradation", self.degradation, 0.0, 1.0),
            ("latency_rise", self.latency_rise, 0.0, f64::INFINITY),
            (
                "reference_alpha",
                self.reference_alpha,
                f64::MIN_POSITIVE,
                1.0,
            ),
        ] {
            if !value.is_finite() || value < lo || value > hi {
                return Err(RuntimeError::InvalidConfig {
                    reason: format!("drift {name} out of range: {value}"),
                });
            }
        }
        if self.patience == 0 {
            return Err(RuntimeError::InvalidConfig {
                reason: "drift patience must be at least one tick".into(),
            });
        }
        for (name, value) in [
            ("replan_every_s", self.replan_every_s),
            ("cooldown_s", self.cooldown_s),
        ] {
            if !value.is_finite() || value < 0.0 {
                return Err(RuntimeError::InvalidConfig {
                    reason: format!("drift {name} must be non-negative and finite, got {value}"),
                });
            }
        }
        Ok(())
    }
}

impl Default for DriftConfig {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

/// The detector state: EWMA references, the degraded-tick streak, and
/// the recovery bookkeeping of the last re-plan.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftDetector {
    config: DriftConfig,
    reference_hit: Option<f64>,
    reference_p95: Option<f64>,
    degraded_ticks: u32,
    /// The hit-ratio reference as it stood when the current degraded
    /// streak began — the EWMA keeps decaying towards the degraded
    /// level while the streak builds, so recovery must be measured
    /// against this snapshot, not the polluted running reference.
    pre_drift_reference: Option<f64>,
    last_replan_s: Option<f64>,
    /// `(replan time, hit ratio to regain)` while a recovery is pending.
    recovery: Option<(f64, f64)>,
}

/// What one observed tick amounted to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftVerdict {
    /// A re-plan should fire now.
    pub replan: Option<ReplanReason>,
    /// The pending recovery completed this tick: seconds from the
    /// triggering re-plan to regaining the pre-drift reference.
    pub recovered_after_s: Option<f64>,
}

impl DriftDetector {
    /// Creates a detector with no history.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] for an invalid
    /// configuration.
    pub fn new(config: DriftConfig) -> Result<Self, RuntimeError> {
        config.validate()?;
        Ok(Self {
            config,
            reference_hit: None,
            reference_p95: None,
            degraded_ticks: 0,
            pre_drift_reference: None,
            last_replan_s: None,
            recovery: None,
        })
    }

    /// The hit-ratio reference the detector currently compares against.
    pub fn reference_hit_ratio(&self) -> Option<f64> {
        self.reference_hit
    }

    /// Feeds one control tick: the tick's hit ratio over its own
    /// requests (`None` for an empty tick) and its p95 service latency.
    /// Returns whether a re-plan should fire and whether a pending
    /// recovery completed.
    pub fn observe(
        &mut self,
        now_s: f64,
        tick_hit_ratio: Option<f64>,
        tick_p95_s: Option<f64>,
    ) -> DriftVerdict {
        let mut recovered_after_s = None;
        let mut degraded = false;
        let reference_before = self.reference_hit;
        if let Some(hit) = tick_hit_ratio {
            if let Some((since_s, target)) = self.recovery {
                // Recovery = regaining the pre-drift reference, less
                // half the firing threshold (the same tolerance that
                // separates "degraded" from noise).
                if hit + 1e-12 >= target * (1.0 - 0.5 * self.config.degradation) {
                    recovered_after_s = Some(now_s - since_s);
                    self.recovery = None;
                }
            }
            if let Some(reference) = self.reference_hit {
                degraded |= hit < reference * (1.0 - self.config.degradation);
            }
            self.update_hit_reference(hit);
        }
        if self.config.latency_rise > 0.0 {
            if let Some(p95) = tick_p95_s {
                if let Some(reference) = self.reference_p95 {
                    degraded |= p95 > reference * (1.0 + self.config.latency_rise);
                }
                let alpha = self.config.reference_alpha;
                self.reference_p95 = Some(
                    self.reference_p95
                        .map_or(p95, |r| alpha * p95 + (1.0 - alpha) * r),
                );
            }
        }

        if degraded {
            if self.degraded_ticks == 0 {
                // The streak starts here: freeze the still-clean
                // reference as the bar recovery will be measured
                // against.
                self.pre_drift_reference = reference_before;
            }
            self.degraded_ticks += 1;
        } else {
            self.degraded_ticks = 0;
            self.pre_drift_reference = None;
        }

        let cooled = self
            .last_replan_s
            .is_none_or(|t| now_s - t >= self.config.cooldown_s);
        let replan = if degraded && self.degraded_ticks >= self.config.patience && cooled {
            Some(ReplanReason::Drift)
        } else if self.config.replan_every_s > 0.0
            && self
                .last_replan_s
                .map_or(now_s >= self.config.replan_every_s, |t| {
                    now_s - t >= self.config.replan_every_s
                })
        {
            Some(ReplanReason::Epoch)
        } else {
            None
        };
        DriftVerdict {
            replan,
            recovered_after_s,
        }
    }

    /// EWMA update of the hit-ratio reference. Degraded ticks still
    /// flow in (slowly), so a permanently lower achievable hit ratio
    /// eventually becomes the new normal instead of firing forever.
    fn update_hit_reference(&mut self, hit: f64) {
        let alpha = self.config.reference_alpha;
        self.reference_hit = Some(
            self.reference_hit
                .map_or(hit, |r| alpha * hit + (1.0 - alpha) * r),
        );
    }

    /// Notes that a re-plan was carried out at `now_s`: starts the
    /// cool-down, resets the degraded streak, and arms the recovery
    /// stopwatch at the *pre-drift* reference (the running EWMA has
    /// been decaying towards the degraded level while the trigger
    /// streak built up; regaining that polluted value would overstate
    /// recoveries).
    pub fn note_replan(&mut self, now_s: f64) {
        self.last_replan_s = Some(now_s);
        self.degraded_ticks = 0;
        if let Some(reference) = self.pre_drift_reference.or(self.reference_hit) {
            self.recovery = Some((now_s, reference));
        }
        self.pre_drift_reference = None;
    }

    /// Captures the detector's full state for checkpointing.
    pub(crate) fn snapshot(&self) -> DriftSnapshot {
        DriftSnapshot {
            config: self.config,
            reference_hit: self.reference_hit,
            reference_p95: self.reference_p95,
            degraded_ticks: self.degraded_ticks,
            pre_drift_reference: self.pre_drift_reference,
            last_replan_s: self.last_replan_s,
            recovery: self.recovery,
        }
    }

    /// Rebuilds a detector from [`DriftDetector::snapshot`] output.
    pub(crate) fn restore(s: DriftSnapshot) -> Self {
        Self {
            config: s.config,
            reference_hit: s.reference_hit,
            reference_p95: s.reference_p95,
            degraded_ticks: s.degraded_ticks,
            pre_drift_reference: s.pre_drift_reference,
            last_replan_s: s.last_replan_s,
            recovery: s.recovery,
        }
    }
}

/// The checkpointable state of a [`DriftDetector`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DriftSnapshot {
    pub config: DriftConfig,
    pub reference_hit: Option<f64>,
    pub reference_p95: Option<f64>,
    pub degraded_ticks: u32,
    pub pre_drift_reference: Option<f64>,
    pub last_replan_s: Option<f64>,
    pub recovery: Option<(f64, f64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector(config: DriftConfig) -> DriftDetector {
        DriftDetector::new(config).unwrap()
    }

    #[test]
    fn sustained_degradation_fires_after_patience() {
        let mut d = detector(DriftConfig {
            cooldown_s: 0.0,
            ..DriftConfig::paper_defaults()
        });
        // Build a healthy reference.
        for t in 0..5 {
            let v = d.observe(t as f64 * 10.0, Some(0.6), None);
            assert_eq!(v.replan, None);
        }
        // One bad tick: not yet (patience 2).
        assert_eq!(d.observe(50.0, Some(0.2), None).replan, None);
        // Second consecutive bad tick: fire.
        assert_eq!(
            d.observe(60.0, Some(0.2), None).replan,
            Some(ReplanReason::Drift)
        );
    }

    #[test]
    fn noise_below_patience_never_fires() {
        let mut d = detector(DriftConfig {
            cooldown_s: 0.0,
            ..DriftConfig::paper_defaults()
        });
        for t in 0..20 {
            // Alternate good/bad ticks: the streak always resets.
            let hit = if t % 2 == 0 { 0.6 } else { 0.2 };
            assert_eq!(d.observe(t as f64, Some(hit), None).replan, None);
        }
    }

    #[test]
    fn cooldown_suppresses_refiring() {
        let mut d = detector(DriftConfig {
            cooldown_s: 100.0,
            ..DriftConfig::paper_defaults()
        });
        for t in 0..5 {
            d.observe(t as f64 * 10.0, Some(0.6), None);
        }
        d.observe(50.0, Some(0.1), None);
        assert!(d.observe(60.0, Some(0.1), None).replan.is_some());
        d.note_replan(60.0);
        // Still degraded, but inside the cool-down.
        for t in [70.0, 90.0, 120.0, 150.0] {
            assert_eq!(d.observe(t, Some(0.1), None).replan, None, "t={t}");
        }
        // After the cool-down the (still-degraded) streak fires again —
        // unless the decaying reference has accepted the new normal.
        let fired = (0..5).any(|j| {
            d.observe(170.0 + j as f64 * 10.0, Some(0.1), None)
                .replan
                .is_some()
        });
        assert!(fired);
    }

    #[test]
    fn epoch_timer_fires_without_degradation() {
        let mut d = detector(DriftConfig {
            replan_every_s: 100.0,
            ..DriftConfig::paper_defaults()
        });
        assert_eq!(d.observe(50.0, Some(0.5), None).replan, None);
        assert_eq!(
            d.observe(100.0, Some(0.5), None).replan,
            Some(ReplanReason::Epoch)
        );
        d.note_replan(100.0);
        assert_eq!(d.observe(150.0, Some(0.5), None).replan, None);
        assert_eq!(
            d.observe(200.0, Some(0.5), None).replan,
            Some(ReplanReason::Epoch)
        );
    }

    #[test]
    fn recovery_is_timed_from_the_replan() {
        let mut d = detector(DriftConfig {
            cooldown_s: 0.0,
            ..DriftConfig::paper_defaults()
        });
        for t in 0..5 {
            d.observe(t as f64 * 10.0, Some(0.6), None);
        }
        d.observe(50.0, Some(0.2), None);
        d.observe(60.0, Some(0.2), None);
        d.note_replan(60.0);
        // Still low: no recovery.
        assert_eq!(d.observe(70.0, Some(0.3), None).recovered_after_s, None);
        // The bar is the *pre-drift* reference (0.6), not the EWMA the
        // two degraded ticks dragged down to ~0.456 — a climb to 0.5
        // must not count as recovered.
        assert_eq!(d.observe(80.0, Some(0.5), None).recovered_after_s, None);
        // Regained the pre-drift reference: stamped relative to 60 s.
        let v = d.observe(90.0, Some(0.6), None);
        assert_eq!(v.recovered_after_s, Some(30.0));
        // Only reported once.
        assert_eq!(d.observe(100.0, Some(0.6), None).recovered_after_s, None);
    }

    #[test]
    fn latency_channel_detects_p95_inflation() {
        let mut d = detector(DriftConfig {
            degradation: 0.9, // effectively mute the hit channel
            latency_rise: 0.5,
            cooldown_s: 0.0,
            ..DriftConfig::paper_defaults()
        });
        for t in 0..5 {
            assert_eq!(d.observe(t as f64, Some(0.5), Some(0.2)).replan, None);
        }
        d.observe(5.0, Some(0.5), Some(0.9));
        assert_eq!(
            d.observe(6.0, Some(0.5), Some(0.9)).replan,
            Some(ReplanReason::Drift)
        );
    }

    #[test]
    fn empty_ticks_carry_no_evidence() {
        let mut d = detector(DriftConfig {
            cooldown_s: 0.0,
            ..DriftConfig::paper_defaults()
        });
        for t in 0..5 {
            d.observe(t as f64, Some(0.6), None);
        }
        // A silent tick neither degrades nor resets the reference.
        assert_eq!(d.observe(5.0, None, None).replan, None);
        assert_eq!(d.reference_hit_ratio().map(|r| r > 0.5), Some(true));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        for bad in [
            DriftConfig {
                degradation: -0.1,
                ..DriftConfig::paper_defaults()
            },
            DriftConfig {
                degradation: 1.5,
                ..DriftConfig::paper_defaults()
            },
            DriftConfig {
                patience: 0,
                ..DriftConfig::paper_defaults()
            },
            DriftConfig {
                reference_alpha: 0.0,
                ..DriftConfig::paper_defaults()
            },
            DriftConfig {
                replan_every_s: -1.0,
                ..DriftConfig::paper_defaults()
            },
            DriftConfig {
                cooldown_s: f64::NAN,
                ..DriftConfig::paper_defaults()
            },
        ] {
            assert!(DriftDetector::new(bad).is_err(), "{bad:?}");
        }
    }
}

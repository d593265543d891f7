//! Deterministic fault injection for the online serving engine.
//!
//! Production edge networks lose servers, degrade backhaul links and
//! drop caches; the paper's model (and every experiment before this
//! module existed) assumes a fault-free horizon. A [`FaultConfig`]
//! attaches a *schedule* of fault transitions to a serving run — either
//! an explicit timeline or a seeded outage storm generated by
//! [`FaultConfig::outage_storm`] — and the engine replays it as ordinary
//! events on the deterministic queue, so a faulty run is exactly as
//! reproducible (and as checkpointable) as a healthy one.
//!
//! The schedule only *describes* faults; the graceful-degradation
//! machinery lives in the engine: serve-path failover along the sorted
//! eligibility candidates, abort-and-retry of in-flight fills with
//! capped seeded-jitter exponential backoff, failure-masked re-planning
//! and self-healing re-replication on recovery. The knobs for all of it
//! are carried here so one value configures the whole degradation
//! story.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::RuntimeError;

/// One fault transition in a schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// An edge server goes dark: its cache stops serving, its in-flight
    /// fills are aborted (and re-queued with backoff), and the planner
    /// stops counting it as eligible until it recovers.
    ServerDown {
        /// The failing server.
        server: usize,
    },
    /// A downed server comes back. What survives in its cache is
    /// governed by the schedule's [`RecoveryMode`]; lost shared blocks
    /// are re-replicated toward the last reconciliation target as
    /// ordinary staged fills.
    ServerUp {
        /// The recovering server.
        server: usize,
    },
    /// A server's backhaul link degrades: transfers started while the
    /// degradation holds run at `factor` times the nominal rate.
    LinkDegraded {
        /// The server whose cloud-ingest link degrades.
        server: usize,
        /// Multiplier in `(0, 1]` applied to the nominal link rate.
        factor: f64,
    },
    /// A degraded link returns to its nominal rate.
    LinkRestored {
        /// The server whose link recovers.
        server: usize,
    },
}

impl FaultKind {
    /// The server this transition applies to.
    pub fn server(&self) -> usize {
        match *self {
            FaultKind::ServerDown { server }
            | FaultKind::ServerUp { server }
            | FaultKind::LinkDegraded { server, .. }
            | FaultKind::LinkRestored { server } => server,
        }
    }
}

/// One timestamped entry of a fault schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Simulated time at which the transition fires.
    pub at_s: f64,
    /// The transition.
    pub kind: FaultKind,
}

/// What a server's cache looks like when it comes back up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecoveryMode {
    /// The cache survives the outage untouched (a process restart with
    /// persistent local storage).
    Intact,
    /// The cache comes back empty (disk lost; everything must be
    /// re-replicated).
    Cold,
    /// The most recently used fraction of resident models survives;
    /// the rest is lost. Ties on recency break by ascending model id,
    /// keeping the loss deterministic.
    Partial {
        /// Fraction of resident models kept, in `[0, 1]`.
        keep_fraction: f64,
    },
}

/// A deterministic fault schedule plus the degradation knobs the engine
/// applies while replaying it.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// The fault transitions, replayed as events on the engine queue.
    pub timeline: Vec<FaultSpec>,
    /// Cache survival semantics applied at every [`FaultKind::ServerUp`].
    pub recovery: RecoveryMode,
    /// Whether requests whose preferred server is down fail over along
    /// the sorted eligibility candidate list (`false` pins the static
    /// baseline: such requests simply fail).
    pub failover: bool,
    /// Attempts before an aborted fill is dropped for good.
    pub max_fill_retries: u32,
    /// Base delay of the exponential retry backoff, in seconds.
    pub retry_backoff_s: f64,
    /// Ceiling the exponential backoff saturates at, in seconds.
    pub retry_backoff_cap_s: f64,
    /// Jitter fraction in `[0, 1]`: each retry delay is stretched by
    /// `1 + retry_jitter * u` with `u` drawn from the run's seeded RNG,
    /// so retries de-synchronise without breaking determinism.
    pub retry_jitter: f64,
}

impl FaultConfig {
    /// A schedule over an explicit timeline with default degradation
    /// knobs: failover on, intact recovery, six retries backing off
    /// from 0.5 s toward a 30 s cap with 20% jitter.
    pub fn new(timeline: Vec<FaultSpec>) -> Self {
        Self {
            timeline,
            recovery: RecoveryMode::Intact,
            failover: true,
            max_fill_retries: 6,
            retry_backoff_s: 0.5,
            retry_backoff_cap_s: 30.0,
            retry_jitter: 0.2,
        }
    }

    /// Generates a seeded outage storm: `down_fraction` of the
    /// `num_servers` servers (at least one) crash at staggered times in
    /// `[start_s, start_s + 0.25·outage_s]` and each recovers
    /// `outage_s` later. The affected servers and stagger offsets are
    /// drawn from a dedicated RNG seeded with `seed`, so the same
    /// arguments always produce the same schedule.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] for a zero-server
    /// topology, a `down_fraction` outside `(0, 1]`, or non-positive /
    /// non-finite times.
    pub fn outage_storm(
        num_servers: usize,
        down_fraction: f64,
        start_s: f64,
        outage_s: f64,
        seed: u64,
    ) -> Result<Self, RuntimeError> {
        if num_servers == 0 {
            return Err(RuntimeError::InvalidConfig {
                reason: "outage storm needs at least one server".into(),
            });
        }
        if !(down_fraction.is_finite() && down_fraction > 0.0 && down_fraction <= 1.0) {
            return Err(RuntimeError::InvalidConfig {
                reason: format!("outage down_fraction must be in (0, 1], got {down_fraction}"),
            });
        }
        if !(start_s.is_finite() && start_s >= 0.0 && outage_s.is_finite() && outage_s > 0.0) {
            return Err(RuntimeError::InvalidConfig {
                reason: format!(
                    "outage times must be finite and positive, got start {start_s} length {outage_s}"
                ),
            });
        }
        let mut rng = StdRng::seed_from_u64(seed);
        // Partial Fisher-Yates: the first `n` slots end up holding a
        // uniform sample of distinct servers.
        let mut servers: Vec<usize> = (0..num_servers).collect();
        let n = ((num_servers as f64 * down_fraction).ceil() as usize).clamp(1, num_servers);
        for i in 0..n {
            let j = rng.gen_range(i..num_servers);
            servers.swap(i, j);
        }
        let mut timeline = Vec::with_capacity(2 * n);
        for &server in &servers[..n] {
            let down_s = start_s + rng.gen_range(0.0..1.0) * 0.25 * outage_s;
            timeline.push(FaultSpec {
                at_s: down_s,
                kind: FaultKind::ServerDown { server },
            });
            timeline.push(FaultSpec {
                at_s: down_s + outage_s,
                kind: FaultKind::ServerUp { server },
            });
        }
        timeline.sort_by(|a, b| {
            a.at_s
                .total_cmp(&b.at_s)
                .then_with(|| a.kind.server().cmp(&b.kind.server()))
        });
        Ok(Self::new(timeline))
    }

    /// Sets the recovery mode applied when a server comes back up.
    #[must_use]
    pub fn with_recovery(mut self, recovery: RecoveryMode) -> Self {
        self.recovery = recovery;
        self
    }

    /// Enables or disables serve-path failover.
    #[must_use]
    pub fn with_failover(mut self, failover: bool) -> Self {
        self.failover = failover;
        self
    }

    /// Sets the retry policy for fills aborted by a failure.
    #[must_use]
    pub fn with_retry(
        mut self,
        max_fill_retries: u32,
        backoff_s: f64,
        cap_s: f64,
        jitter: f64,
    ) -> Self {
        self.max_fill_retries = max_fill_retries;
        self.retry_backoff_s = backoff_s;
        self.retry_backoff_cap_s = cap_s;
        self.retry_jitter = jitter;
        self
    }

    /// The delay before retry `attempt` (1-based), given a unit jitter
    /// draw `u` in `[0, 1)`: exponential in the attempt, saturating at
    /// the cap, stretched by the jitter fraction.
    pub fn retry_delay_s(&self, attempt: u32, unit_jitter: f64) -> f64 {
        let exponent = attempt.saturating_sub(1).min(31);
        let base = (self.retry_backoff_s * (1u64 << exponent) as f64).min(self.retry_backoff_cap_s);
        base * (1.0 + self.retry_jitter * unit_jitter)
    }

    /// Validates every knob and timeline entry that can be checked
    /// without a topology (server index bounds are checked by the
    /// engine via [`FaultConfig::validate_servers`]).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] describing the first
    /// offending field.
    pub fn validate(&self) -> Result<(), RuntimeError> {
        let invalid = |reason: String| Err(RuntimeError::InvalidConfig { reason });
        if !(self.retry_backoff_s.is_finite() && self.retry_backoff_s > 0.0) {
            return invalid(format!(
                "retry backoff must be positive and finite, got {}",
                self.retry_backoff_s
            ));
        }
        if !(self.retry_backoff_cap_s.is_finite()
            && self.retry_backoff_cap_s >= self.retry_backoff_s)
        {
            return invalid(format!(
                "retry backoff cap must be finite and at least the base backoff, got {}",
                self.retry_backoff_cap_s
            ));
        }
        if !(self.retry_jitter.is_finite() && (0.0..=1.0).contains(&self.retry_jitter)) {
            return invalid(format!(
                "retry jitter must be in [0, 1], got {}",
                self.retry_jitter
            ));
        }
        if let RecoveryMode::Partial { keep_fraction } = self.recovery {
            if !(keep_fraction.is_finite() && (0.0..=1.0).contains(&keep_fraction)) {
                return invalid(format!(
                    "partial recovery keep fraction must be in [0, 1], got {keep_fraction}"
                ));
            }
        }
        for spec in &self.timeline {
            // `-0.0 >= 0.0` holds, but the event queue refuses it.
            if !(spec.at_s.is_finite() && spec.at_s.is_sign_positive()) {
                return invalid(format!(
                    "fault times must be finite and non-negative (not -0.0), got {}",
                    spec.at_s
                ));
            }
            if let FaultKind::LinkDegraded { factor, .. } = spec.kind {
                if !(factor.is_finite() && factor > 0.0 && factor <= 1.0) {
                    return invalid(format!(
                        "link degradation factor must be in (0, 1], got {factor}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Checks that every timeline entry names a server inside the
    /// topology the engine was built over.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] naming the first
    /// out-of-range server.
    pub fn validate_servers(&self, num_servers: usize) -> Result<(), RuntimeError> {
        for spec in &self.timeline {
            let server = spec.kind.server();
            if server >= num_servers {
                return Err(RuntimeError::InvalidConfig {
                    reason: format!(
                        "fault schedule names server {server} but the topology has {num_servers}"
                    ),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outage_storm_is_deterministic_and_covers_the_fraction() {
        let a = FaultConfig::outage_storm(20, 0.25, 100.0, 60.0, 7).unwrap();
        let b = FaultConfig::outage_storm(20, 0.25, 100.0, 60.0, 7).unwrap();
        assert_eq!(a, b);
        let downs: Vec<usize> = a
            .timeline
            .iter()
            .filter(|s| matches!(s.kind, FaultKind::ServerDown { .. }))
            .map(|s| s.kind.server())
            .collect();
        assert_eq!(downs.len(), 5, "ceil(20 * 0.25) servers go down");
        let mut unique = downs.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), downs.len(), "distinct servers");
        // Every down has a matching up exactly one outage later.
        for spec in &a.timeline {
            if let FaultKind::ServerDown { server } = spec.kind {
                assert!(a.timeline.iter().any(|s| {
                    matches!(s.kind, FaultKind::ServerUp { server: up } if up == server)
                        && (s.at_s - spec.at_s - 60.0).abs() < 1e-9
                }));
            }
        }
        let c = FaultConfig::outage_storm(20, 0.25, 100.0, 60.0, 8).unwrap();
        assert_ne!(a, c, "different seeds pick different storms");
    }

    #[test]
    fn retry_delay_is_capped_exponential_with_jitter() {
        let fc = FaultConfig::new(Vec::new()).with_retry(8, 1.0, 10.0, 0.5);
        assert_eq!(fc.retry_delay_s(1, 0.0), 1.0);
        assert_eq!(fc.retry_delay_s(2, 0.0), 2.0);
        assert_eq!(fc.retry_delay_s(3, 0.0), 4.0);
        assert_eq!(fc.retry_delay_s(5, 0.0), 10.0, "saturates at the cap");
        assert_eq!(fc.retry_delay_s(40, 0.0), 10.0, "huge attempts stay capped");
        assert_eq!(fc.retry_delay_s(1, 1.0), 1.5, "jitter stretches the delay");
    }

    #[test]
    fn validation_rejects_bad_knobs_and_entries() {
        assert!(FaultConfig::new(Vec::new()).validate().is_ok());
        let mut fc = FaultConfig::new(Vec::new());
        fc.retry_backoff_s = 0.0;
        assert!(fc.validate().is_err());
        let mut fc = FaultConfig::new(Vec::new());
        fc.retry_backoff_cap_s = 0.1;
        assert!(fc.validate().is_err());
        let mut fc = FaultConfig::new(Vec::new());
        fc.retry_jitter = 1.5;
        assert!(fc.validate().is_err());
        let fc = FaultConfig::new(Vec::new())
            .with_recovery(RecoveryMode::Partial { keep_fraction: 2.0 });
        assert!(fc.validate().is_err());
        for at_s in [f64::NAN, -1.0, -0.0] {
            let fc = FaultConfig::new(vec![FaultSpec {
                at_s,
                kind: FaultKind::ServerDown { server: 0 },
            }]);
            assert!(fc.validate().is_err(), "{at_s}");
        }
        let fc = FaultConfig::new(vec![FaultSpec {
            at_s: 1.0,
            kind: FaultKind::LinkDegraded {
                server: 0,
                factor: 0.0,
            },
        }]);
        assert!(fc.validate().is_err());
        let fc = FaultConfig::new(vec![FaultSpec {
            at_s: 1.0,
            kind: FaultKind::ServerUp { server: 9 },
        }]);
        assert!(fc.validate().is_ok());
        assert!(fc.validate_servers(9).is_err());
        assert!(fc.validate_servers(10).is_ok());
    }

    #[test]
    fn storm_rejects_degenerate_arguments() {
        assert!(FaultConfig::outage_storm(0, 0.5, 0.0, 10.0, 1).is_err());
        assert!(FaultConfig::outage_storm(4, 0.0, 0.0, 10.0, 1).is_err());
        assert!(FaultConfig::outage_storm(4, 1.5, 0.0, 10.0, 1).is_err());
        assert!(FaultConfig::outage_storm(4, 0.5, -1.0, 10.0, 1).is_err());
        assert!(FaultConfig::outage_storm(4, 0.5, 0.0, 0.0, 1).is_err());
    }
}

//! Online model re-placement under user mobility.
//!
//! The paper solves the placement on a snapshot of user locations and notes
//! (Section IV-A) that in practice the operator would *"re-initiate model
//! placement when the performance degrades to a certain threshold"*, while
//! Fig. 7 shows that a stale placement only degrades slowly. This module
//! implements exactly that operating loop so the trade-off can be
//! quantified:
//!
//! * [`ReplacementPolicy`] — re-run the placement algorithm whenever the
//!   expected-rate hit ratio of the current placement on the fresh snapshot
//!   falls below a configurable fraction of the hit ratio it achieved right
//!   after it was last computed;
//! * [`replay_with_policy`] — a time-slotted mobility replay producing a
//!   [`ReplacementTrace`]: the hit ratio over time, how many re-placements
//!   were triggered, and how many bytes had to be migrated over the
//!   backhaul to realise them (the cost the paper argues should stay low).
//!
//! The `replacement` experiment and the `online_replacement` example are
//! built on top of this module.

use rand::rngs::StdRng;
use rand::SeedableRng;

use trimcaching_placement::PlacementAlgorithm;
use trimcaching_scenario::mobility::{MobilityModel, PAPER_SLOT_SECONDS};
use trimcaching_scenario::{BlockPlacement, Placement, Scenario, ServerId};
use trimcaching_wireless::geometry::DeploymentArea;

use crate::SimError;

/// Threshold-triggered re-placement policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplacementPolicy {
    /// Relative hit-ratio drop that triggers a re-placement: the placement
    /// is recomputed when the current expected-rate hit ratio falls below
    /// `(1 − trigger_drop)` times the hit ratio right after the last
    /// placement. Must lie in `(0, 1]`.
    pub trigger_drop: f64,
    /// Minimum number of evaluation samples between two re-placements
    /// (rate-limits the backbone traffic).
    pub min_samples_between: usize,
}

impl ReplacementPolicy {
    /// A 5% degradation trigger with no rate limiting — the natural reading
    /// of the paper's "certain threshold" remark.
    pub fn five_percent() -> Self {
        Self {
            trigger_drop: 0.05,
            min_samples_between: 1,
        }
    }

    /// Creates a policy with the given relative drop trigger.
    ///
    /// # Panics
    ///
    /// Panics if `trigger_drop` is not in `(0, 1]`.
    pub fn with_trigger_drop(trigger_drop: f64) -> Self {
        assert!(
            trigger_drop > 0.0 && trigger_drop <= 1.0,
            "trigger drop must lie in (0, 1], got {trigger_drop}"
        );
        Self {
            trigger_drop,
            min_samples_between: 1,
        }
    }
}

impl Default for ReplacementPolicy {
    fn default() -> Self {
        Self::five_percent()
    }
}

/// Timing configuration of a mobility replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayConfig {
    /// Total simulated duration in minutes (the paper's Fig. 7 spans 120).
    pub total_minutes: usize,
    /// Interval between hit-ratio evaluations in minutes.
    pub sample_interval_minutes: usize,
    /// Rayleigh realisations per evaluation (0 = expected rates only).
    pub fading_realisations: usize,
}

impl ReplayConfig {
    /// The Fig. 7 timing: two hours, sampled every 20 minutes.
    pub fn paper() -> Self {
        Self {
            total_minutes: 120,
            sample_interval_minutes: 20,
            fading_realisations: 50,
        }
    }

    /// A fast configuration for tests.
    pub fn smoke() -> Self {
        Self {
            total_minutes: 40,
            sample_interval_minutes: 20,
            fading_realisations: 0,
        }
    }

    fn num_samples(&self) -> usize {
        self.total_minutes / self.sample_interval_minutes
    }

    fn slots_per_sample(&self) -> usize {
        ((self.sample_interval_minutes as f64) * 60.0 / PAPER_SLOT_SECONDS).round() as usize
    }
}

impl Default for ReplayConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Result of one mobility replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplacementTrace {
    /// Evaluation instants in minutes (starting at 0).
    pub times_min: Vec<f64>,
    /// Fading-averaged hit ratio at each instant (after any re-placement
    /// performed at that instant).
    pub hit_ratios: Vec<f64>,
    /// Number of re-placements the policy triggered.
    pub replacements: usize,
    /// Bytes that had to be pushed over the backbone to realise the
    /// re-placements: per server, the sizes of blocks newly stored compared
    /// to the previous placement.
    pub migrated_bytes: u64,
}

impl ReplacementTrace {
    /// Mean hit ratio over the whole replay.
    pub fn mean_hit_ratio(&self) -> f64 {
        if self.hit_ratios.is_empty() {
            return 0.0;
        }
        self.hit_ratios.iter().sum::<f64>() / self.hit_ratios.len() as f64
    }

    /// Relative degradation between the first and the last sample,
    /// in `[−∞, 1]` (positive = the hit ratio dropped).
    pub fn relative_degradation(&self) -> f64 {
        match (self.hit_ratios.first(), self.hit_ratios.last()) {
            (Some(&first), Some(&last)) if first > 0.0 => (first - last) / first,
            _ => 0.0,
        }
    }
}

/// Bytes that must be transferred to turn `old` into `new`: for every
/// server, the total size of blocks stored under `new` but not under `old`.
fn migration_bytes(old: &Placement, new: &Placement, scenario: &Scenario) -> Result<u64, SimError> {
    let library = scenario.library();
    let old_view = BlockPlacement::from_placement(old, library)?;
    let new_view = BlockPlacement::from_placement(new, library)?;
    let mut total = 0u64;
    for m in 0..scenario.num_servers() {
        for block in new_view.blocks_on(ServerId(m))? {
            if !old_view.contains(ServerId(m), block) {
                total += library
                    .block_size_bytes(block)
                    .map_err(trimcaching_scenario::ScenarioError::from)?;
            }
        }
    }
    Ok(total)
}

/// Replays `config.total_minutes` of the paper's pedestrian/bike/vehicle
/// mobility over `scenario`, evaluating (and, when `policy` is given,
/// re-running) `algorithm`'s placement at every sample instant.
///
/// With `policy = None` the placement computed at `t = 0` is kept for the
/// whole replay — exactly the Fig. 7 setting.
///
/// # Errors
///
/// Propagates topology, placement and evaluation errors.
pub fn replay_with_policy(
    scenario: &Scenario,
    area: DeploymentArea,
    algorithm: &(dyn PlacementAlgorithm + Sync),
    policy: Option<&ReplacementPolicy>,
    config: &ReplayConfig,
    mobility_seed: u64,
    fading_seed: u64,
) -> Result<ReplacementTrace, SimError> {
    if config.sample_interval_minutes == 0 || config.total_minutes < config.sample_interval_minutes
    {
        return Err(SimError::InvalidConfig {
            reason: format!(
                "invalid replay timing: {} min total, {} min interval",
                config.total_minutes, config.sample_interval_minutes
            ),
        });
    }

    let mut fading_rng = StdRng::seed_from_u64(fading_seed);
    let mut mobility_rng = StdRng::seed_from_u64(mobility_seed);

    let initial = algorithm.place(scenario)?;
    let mut placement = initial.placement;
    // Reference level the policy compares against: the expected-rate hit
    // ratio right after (re-)placement.
    let mut reference_hit = scenario.hit_ratio(&placement);

    let mut trace = ReplacementTrace {
        times_min: vec![0.0],
        hit_ratios: vec![scenario.average_hit_ratio_under_fading(
            &placement,
            config.fading_realisations,
            &mut fading_rng,
        )?],
        replacements: 0,
        migrated_bytes: 0,
    };

    let initial_positions: Vec<_> = scenario.users().iter().map(|u| u.position()).collect();
    let mut mobility = MobilityModel::paper_mix(&initial_positions, area, &mut mobility_rng);
    let mut samples_since_replacement = 0usize;
    // One snapshot evolved in place (bit-identical to per-sample full
    // rebuilds, without cloning the inputs every sample).
    let mut moved = scenario.clone();

    for sample in 1..=config.num_samples() {
        let positions = mobility.run_slots(config.slots_per_sample(), &mut mobility_rng);
        moved.update_user_positions(&positions)?;
        samples_since_replacement += 1;

        if let Some(policy) = policy {
            let current = moved.hit_ratio(&placement);
            let triggered = current < (1.0 - policy.trigger_drop) * reference_hit
                && samples_since_replacement >= policy.min_samples_between;
            if triggered {
                let refreshed = algorithm.place(&moved)?;
                trace.migrated_bytes +=
                    migration_bytes(&placement, &refreshed.placement, scenario)?;
                placement = refreshed.placement;
                reference_hit = moved.hit_ratio(&placement);
                trace.replacements += 1;
                samples_since_replacement = 0;
            }
        }

        let hit = moved.average_hit_ratio_under_fading(
            &placement,
            config.fading_realisations,
            &mut fading_rng,
        )?;
        trace
            .times_min
            .push((sample * config.sample_interval_minutes) as f64);
        trace.hit_ratios.push(hit);
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyConfig;
    use trimcaching_modellib::builders::SpecialCaseBuilder;
    use trimcaching_placement::TrimCachingGen;

    fn scenario() -> (Scenario, DeploymentArea) {
        let library = SpecialCaseBuilder::paper_setup()
            .models_per_backbone(2)
            .build(3);
        let topology = TopologyConfig::paper_defaults()
            .with_servers(4)
            .with_users(8);
        let scenario = topology.generate(&library, 11, 0).unwrap();
        (scenario, DeploymentArea::paper_default())
    }

    #[test]
    fn static_replay_never_replaces() {
        let (scenario, area) = scenario();
        let gen = TrimCachingGen::new();
        let trace =
            replay_with_policy(&scenario, area, &gen, None, &ReplayConfig::smoke(), 7, 13).unwrap();
        assert_eq!(trace.replacements, 0);
        assert_eq!(trace.migrated_bytes, 0);
        assert_eq!(trace.times_min.len(), 3);
        assert_eq!(trace.times_min, vec![0.0, 20.0, 40.0]);
        for h in &trace.hit_ratios {
            assert!((0.0..=1.0).contains(h));
        }
        assert!(trace.mean_hit_ratio() >= 0.0);
    }

    #[test]
    fn aggressive_policy_replaces_and_reports_migration_cost() {
        let (scenario, area) = scenario();
        let gen = TrimCachingGen::new();
        // A 0.1% threshold re-places on essentially any degradation.
        let policy = ReplacementPolicy::with_trigger_drop(0.001);
        let config = ReplayConfig {
            total_minutes: 80,
            sample_interval_minutes: 20,
            fading_realisations: 0,
        };
        let adaptive =
            replay_with_policy(&scenario, area, &gen, Some(&policy), &config, 7, 13).unwrap();
        let static_trace = replay_with_policy(&scenario, area, &gen, None, &config, 7, 13).unwrap();
        // Mobility is random, so a specific run may or may not trigger; with
        // an almost-zero threshold over 80 minutes it practically always
        // does, and re-placing can only help the expected-rate hit ratio.
        assert!(
            adaptive.replacements >= 1,
            "expected at least one re-placement"
        );
        assert!(adaptive.migrated_bytes > 0);
        assert!(adaptive.mean_hit_ratio() >= static_trace.mean_hit_ratio() - 1e-9);
    }

    #[test]
    fn invalid_timing_is_rejected() {
        let (scenario, area) = scenario();
        let gen = TrimCachingGen::new();
        let bad = ReplayConfig {
            total_minutes: 10,
            sample_interval_minutes: 20,
            fading_realisations: 0,
        };
        assert!(replay_with_policy(&scenario, area, &gen, None, &bad, 1, 1).is_err());
        let bad = ReplayConfig {
            total_minutes: 10,
            sample_interval_minutes: 0,
            fading_realisations: 0,
        };
        assert!(replay_with_policy(&scenario, area, &gen, None, &bad, 1, 1).is_err());
    }

    #[test]
    fn migration_bytes_counts_only_new_blocks() {
        let (scenario, _) = scenario();
        let empty = scenario.empty_placement();
        let mut one = scenario.empty_placement();
        one.place(ServerId(0), trimcaching_modellib::ModelId(0))
            .unwrap();
        let cost = migration_bytes(&empty, &one, &scenario).unwrap();
        assert_eq!(
            cost,
            scenario
                .library()
                .model_size_bytes(trimcaching_modellib::ModelId(0))
                .unwrap()
        );
        // Migrating back to the empty placement costs nothing (removals are
        // free; only pushes consume backbone bandwidth).
        assert_eq!(migration_bytes(&one, &empty, &scenario).unwrap(), 0);
        assert_eq!(migration_bytes(&one, &one, &scenario).unwrap(), 0);
    }

    #[test]
    fn policy_constructors_validate_input() {
        assert_eq!(
            ReplacementPolicy::default(),
            ReplacementPolicy::five_percent()
        );
        let p = ReplacementPolicy::with_trigger_drop(0.2);
        assert_eq!(p.trigger_drop, 0.2);
        assert_eq!(ReplayConfig::default(), ReplayConfig::paper());
        assert_eq!(ReplayConfig::smoke().num_samples(), 2);
        assert_eq!(ReplayConfig::paper().slots_per_sample(), 240);
    }

    #[test]
    #[should_panic(expected = "trigger drop")]
    fn zero_trigger_drop_panics() {
        let _ = ReplacementPolicy::with_trigger_drop(0.0);
    }
}

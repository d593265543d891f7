//! Re-placement planning over estimated demand.
//!
//! The planner is deliberately thin: it feeds the estimator's
//! [`DemandEstimate`] into the very same shared-block-aware CELF lazy
//! greedy ([`TrimCachingGenLazy`]) the offline pipeline uses — via the
//! [`place_with_demand`](TrimCachingGenLazy::place_with_demand) entry
//! point the placement crate exposes over the `DemandView` trait — and
//! returns the target placement. Eligibility, capacities and block
//! sharing all come from the *current* (mobility-evolved) scenario
//! snapshot, so a re-plan accounts for where the users actually are,
//! not where they were at warm-start time.

use trimcaching_placement::TrimCachingGenLazy;
use trimcaching_scenario::{DemandEstimate, Eligibility, MaskedEligibility, Placement, Scenario};

use crate::error::RuntimeError;

/// Solves the target placement for `estimate` on the current snapshot.
///
/// # Errors
///
/// Returns [`RuntimeError::Control`] when the solver rejects the
/// instance (mismatched estimate dimensions or an inconsistent
/// snapshot).
pub fn plan_target(
    scenario: &Scenario,
    estimate: &DemandEstimate,
) -> Result<Placement, RuntimeError> {
    TrimCachingGenLazy::new()
        .place_with_demand(scenario, estimate)
        .map(|outcome| outcome.placement)
        .map_err(|e| RuntimeError::Control {
            reason: format!("re-placement solve failed: {e}"),
        })
}

/// [`plan_target`] with a failure mask: servers flagged in `down` are
/// hidden from the eligibility the solver sees, so the plan routes no
/// demand toward (and places no model on) a server that cannot serve.
/// With no server down this is exactly [`plan_target`] — including the
/// fast path that skips the masking adaptor entirely, keeping healthy
/// re-plans bit-identical to the unmasked planner.
///
/// # Errors
///
/// Returns [`RuntimeError::Control`] when the solver rejects the
/// instance.
pub fn plan_target_masked(
    scenario: &Scenario,
    estimate: &DemandEstimate,
    down: &[bool],
) -> Result<Placement, RuntimeError> {
    if !down.iter().any(|&d| d) {
        return plan_target(scenario, estimate);
    }
    plan_target_masked_on(scenario, scenario.eligibility(), estimate, down)
}

/// [`plan_target_masked`] over an explicit `eligibility` in place of the
/// scenario's own — once a mobility merge has moved the engine's
/// snapshot, the engine passes an indicator derived from scratch for
/// this solve (see [`Scenario::update_radio_positions`]).
/// Capacities and block sharing still come from `scenario`; passing the
/// scenario's own eligibility reproduces [`plan_target_masked`], and
/// with no server down the masking adaptor is skipped the same way.
pub(crate) fn plan_target_masked_on(
    scenario: &Scenario,
    eligibility: &Eligibility,
    estimate: &DemandEstimate,
    down: &[bool],
) -> Result<Placement, RuntimeError> {
    let solver = TrimCachingGenLazy::new();
    let outcome = if down.iter().any(|&d| d) {
        solver.place_with_demand_on(
            scenario,
            estimate,
            &MaskedEligibility::new(eligibility, down),
        )
    } else {
        solver.place_with_demand_on(scenario, estimate, eligibility)
    };
    outcome
        .map(|outcome| outcome.placement)
        .map_err(|e| RuntimeError::Control {
            reason: format!("re-placement solve failed: {e}"),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use trimcaching_modellib::builders::SpecialCaseBuilder;
    use trimcaching_modellib::ModelId;
    use trimcaching_scenario::prelude::*;
    use trimcaching_wireless::geometry::{DeploymentArea, Point};

    fn scenario() -> Scenario {
        let library = SpecialCaseBuilder::paper_setup()
            .models_per_backbone(3)
            .build(5);
        let mut rng = StdRng::seed_from_u64(77);
        let area = DeploymentArea::paper_default();
        let positions: Vec<Point> = (0..10).map(|_| area.sample_uniform(&mut rng)).collect();
        let demand = DemandConfig::paper_defaults()
            .generate(10, library.num_models(), &mut rng)
            .unwrap();
        Scenario::builder()
            .library(library)
            .servers(vec![
                EdgeServer::new(ServerId(0), Point::new(300.0, 500.0), gigabytes(0.4)).unwrap(),
                EdgeServer::new(ServerId(1), Point::new(700.0, 500.0), gigabytes(0.4)).unwrap(),
            ])
            .users_at(&positions)
            .demand(demand)
            .build()
            .unwrap()
    }

    #[test]
    fn planned_targets_are_feasible_and_demand_driven() {
        let s = scenario();
        let (k, i) = (s.num_users(), s.num_models());
        let hot = 2usize;
        let mut weights = vec![0.0; k * i];
        for row in weights.chunks_exact_mut(i) {
            row[hot] = 5.0;
        }
        let estimate = DemandEstimate::new(i, weights).unwrap();
        let target = plan_target(&s, &estimate).unwrap();
        assert!(s.satisfies_capacities(&target));
        let cached_somewhere =
            (0..s.num_servers()).any(|m| target.contains(ServerId(m), ModelId(hot)));
        assert!(cached_somewhere, "the only demanded model must be placed");
        // Mismatched estimates are a control error.
        let wrong = DemandEstimate::new(i + 2, vec![1.0; k * (i + 2)]).unwrap();
        let err = plan_target(&s, &wrong).unwrap_err();
        assert!(matches!(err, RuntimeError::Control { .. }));
    }

    #[test]
    fn masked_planning_avoids_down_servers() {
        let s = scenario();
        let (k, i) = (s.num_users(), s.num_models());
        let estimate = DemandEstimate::new(i, vec![1.0; k * i]).unwrap();
        // No mask: bit-identical to the unmasked planner.
        let plain = plan_target(&s, &estimate).unwrap();
        let unmasked = plan_target_masked(&s, &estimate, &[false, false]).unwrap();
        assert_eq!(plain, unmasked);
        // Server 0 down: nothing may be placed there.
        let masked = plan_target_masked(&s, &estimate, &[true, false]).unwrap();
        assert_eq!(
            masked.models_on(ServerId(0)).unwrap(),
            Vec::<ModelId>::new(),
            "a down server must receive no placement"
        );
        assert!(s.satisfies_capacities(&masked));
    }
}

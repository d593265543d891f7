//! The [`PlacementAlgorithm`] trait and the [`PlacementOutcome`] report all
//! algorithms return.

use std::time::Duration;

use trimcaching_scenario::{Placement, Scenario};

use crate::error::PlacementError;

/// The result of running a placement algorithm on a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementOutcome {
    /// Name of the algorithm that produced this outcome.
    pub algorithm: String,
    /// The chosen placement.
    pub placement: Placement,
    /// Expected cache hit ratio `U(X)` under the scenario's expected-rate
    /// eligibility.
    pub hit_ratio: f64,
    /// Wall-clock running time of the optimisation.
    pub runtime: Duration,
    /// Number of candidate evaluations (marginal-gain computations, DP
    /// cells, or enumerated placements, depending on the algorithm) — a
    /// machine-independent work measure reported alongside the wall clock.
    pub evaluations: u64,
}

impl PlacementOutcome {
    /// Convenience constructor that computes the hit ratio from the
    /// scenario.
    pub fn new(
        algorithm: impl Into<String>,
        scenario: &Scenario,
        placement: Placement,
        runtime: Duration,
        evaluations: u64,
    ) -> Self {
        let hit_ratio = scenario.hit_ratio(&placement);
        Self {
            algorithm: algorithm.into(),
            placement,
            hit_ratio,
            runtime,
            evaluations,
        }
    }
}

/// A model-placement algorithm for the TrimCaching problem P1.1.
///
/// Implementations must return placements that respect every server's
/// storage capacity under the accounting rule the algorithm itself uses
/// (shared storage for the TrimCaching algorithms, full model sizes for the
/// Independent Caching baseline).
pub trait PlacementAlgorithm {
    /// Short human-readable name (used in reports and benchmarks).
    fn name(&self) -> &str;

    /// Solves the placement problem on `scenario`.
    ///
    /// # Errors
    ///
    /// Returns a [`PlacementError`] when the scenario is inconsistent, the
    /// algorithm configuration is invalid, or the instance exceeds the
    /// algorithm's tractability budget.
    fn place(&self, scenario: &Scenario) -> Result<PlacementOutcome, PlacementError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use trimcaching_modellib::builders::SpecialCaseBuilder;
    use trimcaching_scenario::prelude::*;
    use trimcaching_wireless::geometry::Point;

    fn scenario() -> Scenario {
        let library = SpecialCaseBuilder::paper_setup()
            .models_per_backbone(2)
            .build(1);
        let mut rng = StdRng::seed_from_u64(0);
        let demand = DemandConfig::paper_defaults()
            .generate(3, library.num_models(), &mut rng)
            .unwrap();
        Scenario::builder()
            .library(library)
            .servers(vec![EdgeServer::new(
                ServerId(0),
                Point::new(500.0, 500.0),
                gigabytes(1.0),
            )
            .unwrap()])
            .users_at(&[
                Point::new(480.0, 500.0),
                Point::new(520.0, 490.0),
                Point::new(510.0, 520.0),
            ])
            .demand(demand)
            .build()
            .unwrap()
    }

    #[test]
    fn outcome_computes_hit_ratio_from_scenario() {
        let s = scenario();
        let empty = s.empty_placement();
        let outcome = PlacementOutcome::new("noop", &s, empty.clone(), Duration::from_millis(1), 0);
        assert_eq!(outcome.algorithm, "noop");
        assert_eq!(outcome.hit_ratio, 0.0);
        assert_eq!(outcome.placement, empty);
        assert_eq!(outcome.evaluations, 0);

        let mut placed = s.empty_placement();
        placed
            .place(ServerId(0), trimcaching_modellib::ModelId(0))
            .unwrap();
        let outcome = PlacementOutcome::new("one", &s, placed, Duration::ZERO, 3);
        assert!(outcome.hit_ratio > 0.0);
    }

    #[test]
    fn trait_objects_are_usable() {
        struct Noop;
        impl PlacementAlgorithm for Noop {
            fn name(&self) -> &str {
                "noop"
            }
            fn place(&self, scenario: &Scenario) -> Result<PlacementOutcome, PlacementError> {
                Ok(PlacementOutcome::new(
                    self.name(),
                    scenario,
                    scenario.empty_placement(),
                    Duration::ZERO,
                    0,
                ))
            }
        }
        let s = scenario();
        let alg: Box<dyn PlacementAlgorithm> = Box::new(Noop);
        assert_eq!(alg.name(), "noop");
        let out = alg.place(&s).unwrap();
        assert_eq!(out.hit_ratio, 0.0);
    }
}

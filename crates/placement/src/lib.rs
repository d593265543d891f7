//! TrimCaching placement algorithms — the paper's primary contribution.
//!
//! This crate implements every algorithm evaluated in the paper
//! (Qu et al., "TrimCaching: Parameter-sharing AI Model Caching in Wireless
//! Edge Networks", ICDCS 2024):
//!
//! * [`TrimCachingSpec`] — Algorithms 1 + 2: the successive-greedy /
//!   DP-rounding algorithm for the special case with a small fixed number
//!   of shared parameter blocks, with a `(1 − ε)/2` approximation
//!   guarantee;
//! * [`TrimCachingGen`] — Algorithm 3: the greedy algorithm for the
//!   general case with arbitrary parameter sharing;
//! * [`TrimCachingGenLazy`] — a CELF-style lazy-evaluation acceleration of
//!   Algorithm 3 producing the same placement with far fewer marginal-gain
//!   evaluations;
//! * [`IndependentCaching`] — the sharing-oblivious content-placement
//!   baseline the paper compares against;
//! * [`TopPopularity`] / [`RandomPlacement`] — simpler reference baselines
//!   (popularity-only replication and random feasible packing);
//! * [`ExhaustiveSearch`] — the optimal reference used in the Fig. 6
//!   running-time comparison;
//! * [`submodular`] — empirical checkers for the structural results of
//!   Proposition 1 (submodular objective, submodular constraints);
//! * [`bounds`] — the approximation-guarantee bookkeeping of Theorems 2–3
//!   (the `(1 − ε)/2` floor and the packing constant `Γ`).
//!
//! All algorithms implement the [`PlacementAlgorithm`] trait and return a
//! [`PlacementOutcome`] carrying the placement, the achieved expected cache
//! hit ratio, the wall-clock running time and a machine-independent work
//! counter.
//!
//! # Example
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use trimcaching_modellib::builders::SpecialCaseBuilder;
//! use trimcaching_placement::{PlacementAlgorithm, TrimCachingGen, TrimCachingSpec};
//! use trimcaching_scenario::prelude::*;
//! use trimcaching_wireless::geometry::{DeploymentArea, Point};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let library = SpecialCaseBuilder::paper_setup().models_per_backbone(3).build(1);
//! let mut rng = StdRng::seed_from_u64(7);
//! let area = DeploymentArea::paper_default();
//! let users: Vec<Point> = (0..8).map(|_| area.sample_uniform(&mut rng)).collect();
//! let demand = DemandConfig::paper_defaults().generate(8, library.num_models(), &mut rng)?;
//! let scenario = Scenario::builder()
//!     .library(library)
//!     .servers(vec![
//!         EdgeServer::new(ServerId(0), Point::new(300.0, 500.0), gigabytes(1.0))?,
//!         EdgeServer::new(ServerId(1), Point::new(700.0, 500.0), gigabytes(1.0))?,
//!     ])
//!     .users_at(&users)
//!     .demand(demand)
//!     .build()?;
//!
//! let spec = TrimCachingSpec::new().place(&scenario)?;
//! let gen = TrimCachingGen::new().place(&scenario)?;
//! assert!(spec.hit_ratio >= gen.hit_ratio - 0.05);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::allow_attributes)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod baselines;
pub mod bounds;
pub mod error;
pub mod exhaustive;
pub mod general;
mod greedy;
pub mod independent;
pub mod lazy;
pub mod outcome;
pub mod spec;
pub mod submodular;
#[cfg(test)]
mod test_support;

pub use baselines::{RandomPlacement, TopPopularity};
pub use bounds::{gamma_bound, spec_guarantee_floor, theorem3_floor, GammaBound};
pub use error::PlacementError;
pub use exhaustive::ExhaustiveSearch;
pub use general::TrimCachingGen;
pub use independent::IndependentCaching;
pub use lazy::TrimCachingGenLazy;
pub use outcome::{PlacementAlgorithm, PlacementOutcome};
pub use spec::TrimCachingSpec;
pub use submodular::{
    check_objective_monotonicity, check_objective_submodularity, check_storage_submodularity,
    SubmodularityReport,
};

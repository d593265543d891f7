//! TrimCaching system model: the scenario layer between the wireless /
//! model-library substrates and the placement algorithms.
//!
//! This crate implements Sections III and IV of the paper:
//!
//! * [`entities`] — edge servers (with storage capacities `Q_m`) and users;
//! * [`demand`] — request probabilities `p_{k,i}`, QoS budgets `T̄_{k,i}`
//!   and on-device inference latencies `t_{k,i}`;
//! * [`latency`] — the downlink rate matrix (one row per user over its
//!   covering servers), end-to-end latency of Eqs. (4)–(5) and the
//!   constructors of the service-eligibility indicator `I1(m,k,i)`;
//! * [`eligibility`] — the [`EligibilityView`] trait and its two
//!   representations (see below);
//! * [`placement`] — the decision variables `x_{m,i}` (and their block-level
//!   view `y_{m,j}`);
//! * [`storage`] — shared-storage accounting `g_m` of Eq. (7) with
//!   incremental (marginal-cost) updates;
//! * [`objective`] — the expected cache-hit-ratio objective `U(X)` of
//!   Eq. (2), its pointwise marginal gains, and the served-set
//!   [`Coverage`] the greedy solvers score gains through;
//! * [`mobility`] — the pedestrian/bike/vehicle mobility models of the
//!   Fig. 7 robustness study;
//! * [`scenario`] — the [`Scenario`] aggregate and its builder.
//!
//! # Eligibility representations
//!
//! The indicator `I1(m,k,i)` is consumed everywhere through the
//! [`EligibilityView`] trait, which has two implementations selected by
//! [`eligibility::EligibilityRepr`] on the builder:
//!
//! * **Dense** ([`EligibilityTensor`]) — the full `M × K × I` cube, one
//!   bitset of users per `(server, model)` cell. `O(1)` point queries and
//!   word-wise marginal gains; memory is `M · I · ⌈K/64⌉` words, fine for
//!   paper-scale snapshots (10 servers × 30 users × 30 models) up to the
//!   paper footprint at 3 000 users (113 KB).
//! * **Sparse** ([`eligibility::SparseEligibility`]) — coverage-pruned
//!   CSR: per request class `(k, i)` a sorted candidate-server list, plus
//!   a per-server model-major reverse index of eligible users. Memory
//!   follows the number of eligible triples — in city-scale deployments
//!   (1000+ servers, each user covered by a handful) orders of magnitude
//!   below the cube, and marginal-gain loops walk only eligible triples.
//!
//! `Auto` (the default) resolves to **Sparse** when at most
//! [`eligibility::EligibilityRepr::AUTO_COVERAGE_THRESHOLD`] (10%) of
//! `(server, user)` pairs are covered, or when the cube would exceed
//! [`eligibility::EligibilityRepr::AUTO_CELL_LIMIT`] cells (≈ 4 Mi)
//! while coverage stays below
//! [`eligibility::EligibilityRepr::AUTO_COVERAGE_CEILING`] (50% — above
//! that the CSR's ~8 bytes per eligible triple would outgrow the cube's
//! 1 byte per cell); **Dense** otherwise. Both paths yield indices in
//! ascending order, so hit ratios and marginal gains are bit-identical
//! across representations.
//!
//! # Example
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use trimcaching_modellib::builders::SpecialCaseBuilder;
//! use trimcaching_scenario::prelude::*;
//! use trimcaching_wireless::geometry::Point;
//!
//! # fn main() -> Result<(), trimcaching_scenario::ScenarioError> {
//! let library = SpecialCaseBuilder::paper_setup().models_per_backbone(2).build(1);
//! let mut rng = StdRng::seed_from_u64(7);
//! let demand = DemandConfig::paper_defaults().generate(4, library.num_models(), &mut rng)?;
//! let scenario = Scenario::builder()
//!     .library(library)
//!     .servers(vec![EdgeServer::new(ServerId(0), Point::new(500.0, 500.0), gigabytes(1.0))?])
//!     .users_at(&[
//!         Point::new(450.0, 500.0),
//!         Point::new(550.0, 520.0),
//!         Point::new(480.0, 470.0),
//!         Point::new(530.0, 540.0),
//!     ])
//!     .demand(demand)
//!     .build()?;
//! let mut placement = scenario.empty_placement();
//! placement.place(ServerId(0), trimcaching_modellib::ModelId(0))?;
//! assert!(scenario.hit_ratio(&placement) > 0.0);
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

pub mod block_view;
pub mod delta;
pub mod demand;
pub mod eligibility;
pub mod entities;
pub mod error;
pub mod latency;
pub mod mobility;
pub mod objective;
pub mod placement;
pub mod scenario;
pub mod storage;

pub use block_view::BlockPlacement;
pub use delta::SnapshotDelta;
pub use demand::{Demand, DemandConfig, DemandEstimate, DemandView};
pub use eligibility::{
    Eligibility, EligibilityRepr, EligibilityTensor, EligibilityView, MaskedEligibility,
    SparseEligibility,
};
pub use entities::{gigabytes, EdgeServer, ServerId, User, UserId};
pub use error::ScenarioError;
pub use latency::{LatencyEvaluator, RateMatrix};
pub use mobility::{CommuterFlow, MobilityClass, MobilityModel};
pub use objective::{Coverage, HitRatioObjective};
pub use placement::Placement;
pub use scenario::{Scenario, ScenarioBuilder};
pub use storage::StorageTracker;

/// Convenient glob-import of the most common scenario types.
pub mod prelude {
    pub use crate::block_view::BlockPlacement;
    pub use crate::delta::SnapshotDelta;
    pub use crate::demand::{Demand, DemandConfig, DemandEstimate, DemandView};
    pub use crate::eligibility::{
        Eligibility, EligibilityRepr, EligibilityTensor, EligibilityView, MaskedEligibility,
        SparseEligibility,
    };
    pub use crate::entities::{gigabytes, EdgeServer, ServerId, User, UserId};
    pub use crate::error::ScenarioError;
    pub use crate::mobility::{CommuterFlow, MobilityClass, MobilityModel};
    pub use crate::objective::{Coverage, HitRatioObjective};
    pub use crate::placement::Placement;
    pub use crate::scenario::{Scenario, ScenarioBuilder};
    pub use crate::storage::StorageTracker;
}

//! # TrimCaching — parameter-sharing AI model caching in wireless edge networks
//!
//! A Rust reproduction of *"TrimCaching: Parameter-sharing AI Model Caching
//! in Wireless Edge Networks"* (Qu, Lin, Liu, Chen, Huang — ICDCS 2024).
//!
//! TrimCaching places AI models on wireless edge servers to maximise the
//! cache hit ratio of model-download requests under per-request latency
//! budgets, exploiting the fact that fine-tuned models share parameter
//! blocks (frozen backbones, LoRA bases, ...) which only need to be stored
//! once per server.
//!
//! This crate is a thin facade re-exporting the workspace members:
//!
//! * [`wireless`] — radio substrate (geometry, Shannon rates, Rayleigh
//!   fading, backhaul, coverage);
//! * [`modellib`] — parameter-sharing model libraries and their builders;
//! * [`scenario`] — the system model (demand, latency, storage, objective,
//!   mobility, scenarios) with dense and coverage-pruned sparse
//!   eligibility representations behind one `EligibilityView` trait;
//! * [`placement`] — the TrimCaching Spec / Gen algorithms, the
//!   Independent Caching baseline and the exhaustive-search reference;
//! * [`runtime`] — the event-driven online serving engine: Poisson
//!   request streams (optionally piecewise non-stationary) replayed
//!   against placements, per-server caches with block-granular
//!   residency under shared-block-aware eviction policies, cache fills
//!   pipelined as block transfers over congestion-aware backhaul links
//!   (whole-model fills remain as a compatibility baseline), mobility
//!   with server handover, an **online re-placement controller**
//!   (`runtime::control`: EWMA demand estimation, drift detection,
//!   estimated-demand re-plans, staged cache reconciliation), and
//!   streaming metrics (windowed hit ratio, block hit ratio, backhaul
//!   bytes moved, re-plan/recovery counters, latency percentiles), and
//!   **durable runs** (`runtime::persist`: an append-only CRC-framed
//!   journal of served requests plus slot-boundary checkpoints, with
//!   byte-identical `ServeEngine::resume` after a kill anywhere and
//!   `ServeEngine::fork` for A/B futures of one checkpoint);
//! * [`sim`] — the simulation harness regenerating every figure of the
//!   paper's evaluation, plus the online `serve` experiments.
//!
//! # Quickstart
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use trimcaching::modellib::builders::SpecialCaseBuilder;
//! use trimcaching::placement::{PlacementAlgorithm, TrimCachingSpec};
//! use trimcaching::scenario::prelude::*;
//! use trimcaching::wireless::geometry::{DeploymentArea, Point};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. A parameter-sharing model library (three ResNet-like backbones).
//! let library = SpecialCaseBuilder::paper_setup().models_per_backbone(3).build(1);
//!
//! // 2. A network snapshot: two edge servers, a handful of users.
//! let mut rng = StdRng::seed_from_u64(42);
//! let area = DeploymentArea::paper_default();
//! let users: Vec<Point> = (0..10).map(|_| area.sample_uniform(&mut rng)).collect();
//! let demand = DemandConfig::paper_defaults().generate(10, library.num_models(), &mut rng)?;
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
//! // 3. Place models and read off the expected cache hit ratio.
//! let outcome = TrimCachingSpec::new().place(&scenario)?;
//! assert!(outcome.hit_ratio > 0.0 && outcome.hit_ratio <= 1.0);
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

pub use trimcaching_modellib as modellib;
pub use trimcaching_placement as placement;
pub use trimcaching_runtime as runtime;
pub use trimcaching_scenario as scenario;
pub use trimcaching_sim as sim;
pub use trimcaching_wireless as wireless;

/// The most commonly used types, re-exported for convenience.
pub mod prelude {
    pub use trimcaching_modellib::builders::{
        GeneralCaseBuilder, LoraLibraryBuilder, SpecialCaseBuilder,
    };
    pub use trimcaching_modellib::{BlockId, LibraryStats, ModelId, ModelLibrary, ZipfPopularity};
    pub use trimcaching_placement::{
        ExhaustiveSearch, GammaBound, IndependentCaching, PlacementAlgorithm, PlacementOutcome,
        RandomPlacement, TopPopularity, TrimCachingGen, TrimCachingGenLazy, TrimCachingSpec,
    };
    pub use trimcaching_runtime::{
        rotate_popularity, serve, serve_ensemble, ControlConfig, CostAwareLfu, DriftConfig,
        EvictionPolicy, FillGranularity, Lfu, Lru, PersistConfig, PopularityShift, ServeConfig,
        ServeEngine, ServeReport, Workload,
    };
    pub use trimcaching_scenario::prelude::*;
    pub use trimcaching_sim::{
        CityScaleConfig, ComparisonTable, ExperimentTable, MonteCarloConfig, TopologyConfig,
    };
    pub use trimcaching_wireless::{
        DeploymentArea, LogNormalShadowing, Point, RadioParams, ShadowedRayleigh,
    };
}

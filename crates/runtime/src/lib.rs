//! Event-driven online request-serving engine for TrimCaching placements.
//!
//! The offline crates solve the paper's placement problem on a snapshot
//! and score it with the *expected* cache hit ratio (Eq. 2). This crate
//! answers the operational question behind the ROADMAP north star —
//! what happens when live traffic actually arrives? — with a
//! deterministic discrete-event simulation:
//!
//! * [`event`] — a seeded, tie-broken event queue: identical seeds
//!   produce byte-identical runs;
//! * [`workload`] — per-user Poisson request streams whose model choices
//!   follow the scenario's demand matrix `p_{k,i}`;
//! * [`cache`] — per-server caches over the scenario layer's
//!   shared-storage accounting (Eq. 7), with online access statistics
//!   and **block-granular transfer state**: blocks are refcounted
//!   across models, fills reserve capacity up front and stay *pending*
//!   until their transfer completes, and evicting a model never strands
//!   bytes another cached model (or in-flight fill) still needs;
//! * [`transfer`] — per-server congestion-aware cloud-ingest links:
//!   in-flight transfers degrade the effective rate (deterministic
//!   processor sharing frozen at transfer start), replacing the
//!   closed-form cloud-fetch constant;
//! * [`policy`] — pluggable eviction/admission policies: classical LRU
//!   and LFU baselines plus the shared-block-aware [`CostAwareLfu`],
//!   which ranks victims by observed demand per *reclaimable* byte
//!   (evicting a model only frees its unshared blocks);
//! * [`engine`] — the region engine: requests served through the
//!   eligibility indicator `I1(m, k, i)` and end-to-end latencies of
//!   Eqs. (3)–(5), misses turned into block-granular fill pipelines
//!   ([`FillGranularity::Block`] moves only missing blocks over the
//!   backhaul; [`FillGranularity::WholeModel`] is the sharing-blind
//!   baseline), caches maintained online, and independent runs fanned
//!   out across worker threads. [`ServeEngine`] is the classic
//!   whole-deployment engine: the one-region [`ShardedServeEngine`];
//! * [`control`] — the **online re-placement loop**: an EWMA demand
//!   estimator over the served stream, a drift detector on the windowed
//!   hit-ratio / p95 trace, re-plans through the shared-block-aware
//!   lazy greedy against the *estimated* demand, and staged cache
//!   reconciliation whose fills ride the ordinary congestion-aware
//!   backhaul pipeline — reconfiguration cost shows up in backhaul
//!   bytes and tail latency like everything else (enable with
//!   [`ServeConfig::with_control`]);
//! * [`faults`] — **deterministic fault injection**: a seeded schedule
//!   of server crashes/recoveries and link degradations replayed as
//!   ordinary events, with serve-path failover along the sorted
//!   eligibility candidates, abort-and-retry of in-flight fills under
//!   capped seeded-jitter backoff, failure-masked re-planning and
//!   self-healing re-replication on recovery (enable with
//!   [`ServeConfig::with_faults`]);
//! * [`metrics`] — streaming metrics: windowed hit-ratio trace,
//!   hit/miss/rejected counts, backhaul bytes moved, block hit ratio,
//!   transfer-queue depth, re-plan/reconciliation counters with
//!   hit-ratio recovery times, and a latency histogram with
//!   p50/p95/p99;
//! * [`persist`] — **durable runs**: a CRC-guarded append-only journal
//!   of served events, slot-boundary checkpoints of the full engine
//!   state (RNG words, event queue, caches, in-flight transfers,
//!   controller), byte-identical resume after a crash
//!   ([`ServeEngine::resume`]) and A/B forks of one checkpoint under
//!   different policies ([`ServeEngine::fork`]) — enable with
//!   [`ServeConfig::with_persist`];
//! * [`shard`] — **the run coordinator**: every run is `R` region
//!   engines (vertical strips of the deployment, each with its own
//!   event queue, RNG stream, caches and regional controller) over
//!   **one** shared radio snapshot. User mobility advances in event
//!   time; at each mobility boundary the coordinator updates the one
//!   snapshot, recounts server handovers and migrates user ownership
//!   deterministically, so the trace is byte-identical across any
//!   thread count; regions run on a worker pool between boundaries
//!   ([`ShardedServeEngine`]; `R = 1` is [`ServeEngine`]);
//! * [`fanout`] — the thread fan-out: a scoped-thread map behind shard
//!   driving, ensembles, Monte-Carlo topologies and sweeps, and the one
//!   helper thread a mobile or durable run keeps for its checkpoint
//!   saves and its merges' rate passes. Results come back in index
//!   order, with the lowest-index error, for any thread count.
//!
//! # Example
//!
//! ```
//! use trimcaching_runtime::{serve, CostAwareLfu, ServeConfig};
//! # use rand::{rngs::StdRng, SeedableRng};
//! # use trimcaching_modellib::builders::SpecialCaseBuilder;
//! # use trimcaching_scenario::prelude::*;
//! # use trimcaching_wireless::geometry::{DeploymentArea, Point};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let library = SpecialCaseBuilder::paper_setup().models_per_backbone(2).build(1);
//! # let mut rng = StdRng::seed_from_u64(7);
//! # let area = DeploymentArea::paper_default();
//! # let users: Vec<Point> = (0..6).map(|_| area.sample_uniform(&mut rng)).collect();
//! # let demand = DemandConfig::paper_defaults().generate(6, library.num_models(), &mut rng)?;
//! # let scenario = Scenario::builder()
//! #     .library(library)
//! #     .servers(vec![EdgeServer::new(ServerId(0), Point::new(500.0, 500.0), gigabytes(0.5))?])
//! #     .users_at(&users)
//! #     .demand(demand)
//! #     .build()?;
//! let config = ServeConfig::smoke().with_seed(42);
//! let report = serve(&scenario, &CostAwareLfu, None, &config)?;
//! assert!((0.0..=1.0).contains(&report.metrics.hit_ratio()));
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

pub mod cache;
pub mod control;
pub mod engine;
pub mod error;
pub mod event;
pub mod fanout;
pub mod faults;
pub mod metrics;
pub mod persist;
pub mod policy;
pub mod shard;
pub mod transfer;
pub mod workload;

pub use cache::{CacheView, FillPlan, ServerCache};
pub use control::{
    ControlConfig, Controller, DemandEstimator, DriftConfig, DriftDetector, ReplanReason,
};
pub use engine::{serve, serve_ensemble, FillGranularity, ServeConfig, ServeEngine, ServeReport};
pub use error::RuntimeError;
pub use event::{Event, EventKind, EventQueue};
pub use faults::{FaultConfig, FaultKind, FaultSpec, RecoveryMode};
pub use metrics::{LatencyHistogram, RequestOutcome, ServeMetrics, WindowPoint};
pub use persist::{
    read_journal, recompute_metrics, Checkpoint, JournalHeader, PersistConfig, PersistError,
    ServedRecord,
};
pub use policy::{CostAwareLfu, EvictionPolicy, Lfu, Lru};
pub use shard::ShardedServeEngine;
pub use transfer::{BackhaulLink, TransferTicket};
pub use workload::{
    permute_popularity, rotate_popularity, PopularityEdit, PopularityShift, Workload,
};

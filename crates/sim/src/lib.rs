//! Simulation harness reproducing the TrimCaching evaluation.
//!
//! This crate turns the substrates (`trimcaching-wireless`,
//! `trimcaching-modellib`, `trimcaching-scenario`) and the algorithms
//! (`trimcaching-placement`) into the experiments of Section VII of the
//! paper:
//!
//! * [`topology`] — random network topologies per Section VII-A;
//! * [`montecarlo`] — averaging over topologies and Rayleigh fading
//!   realisations, in parallel;
//! * [`experiments`] — one driver per figure (Figs. 1, 4, 5, 6, 7) plus
//!   ablation studies;
//! * [`report`] — tables with Markdown/CSV rendering, as printed by the
//!   `trimcaching-sim` binary and recorded in `EXPERIMENTS.md`.
//!
//! # Example
//!
//! ```no_run
//! use trimcaching_sim::experiments::{fig4, RunConfig};
//!
//! let config = RunConfig::reduced();
//! let table = fig4::capacity_sweep(&config).expect("experiment runs");
//! println!("{}", table.to_markdown());
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

pub mod error;
pub mod experiments;
pub mod montecarlo;
pub mod report;
pub mod sweep;
pub mod topology;

pub use error::SimError;
pub use montecarlo::{evaluate_algorithms, AlgorithmSamples, MonteCarloConfig};
pub use report::{ComparisonTable, ExperimentTable, Measurement};
pub use sweep::{run_sweep, Cell, PolicyKind, SweepReport, SweepSpec, WorkloadFamily};
pub use topology::{CityScaleConfig, TopologyConfig};

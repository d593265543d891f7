//! Parameter-sharing AI model library substrate for the TrimCaching
//! reproduction.
//!
//! The content being cached in TrimCaching (Qu et al., ICDCS 2024) is a
//! library of AI models that share *parameter blocks*: frozen backbone
//! layers, LoRA bases, transformer blocks, and so on. A shared block only
//! needs to be stored once per edge server, which is the storage-efficiency
//! lever the whole paper exploits.
//!
//! This crate provides:
//!
//! * [`block`] — parameter blocks ([`ParameterBlock`], [`BlockId`]);
//! * [`model`] — models as ordered sets of blocks ([`Model`], [`ModelId`]);
//! * [`library`] — the deduplicated [`ModelLibrary`] with the incidence
//!   structure `I_j` (models containing block `j`) and shared/specific
//!   classification used throughout the paper;
//! * [`builders`] — generators reproducing the paper's two libraries:
//!   the *special case* (all models fine-tuned from a few pre-trained
//!   backbones by bottom-layer freezing) and the *general case*
//!   (two-round fine-tuning per Table I), plus the ResNet-like backbone
//!   descriptions they are built from;
//! * [`popularity`] — the Zipf request-popularity distribution;
//! * [`accuracy`] — the synthetic accuracy-vs-frozen-layers model standing
//!   in for the paper's Fig. 1 fine-tuning experiment (its module docs
//!   give the substitution and its calibration).
//!
//! # Example
//!
//! ```
//! use trimcaching_modellib::builders::SpecialCaseBuilder;
//!
//! let library = SpecialCaseBuilder::paper_setup()
//!     .models_per_backbone(10)
//!     .build(42);
//! assert_eq!(library.num_models(), 30);
//! // Every model shares its frozen prefix with siblings from the same
//! // backbone, so the deduplicated size is far below the naive sum.
//! assert!(library.total_unique_bytes() < library.total_naive_bytes());
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

pub mod accuracy;
pub mod block;
pub mod builders;
pub mod error;
pub mod library;
pub mod model;
pub mod popularity;
pub mod stats;

pub use accuracy::FrozenLayerAccuracy;
pub use block::{BlockId, ParameterBlock};
pub use builders::{GeneralCaseBuilder, LoraLibraryBuilder, SpecialCaseBuilder};
pub use error::ModelLibError;
pub use library::ModelLibrary;
pub use model::{Model, ModelId};
pub use popularity::ZipfPopularity;
pub use stats::LibraryStats;

//! Wireless network substrate for the TrimCaching reproduction.
//!
//! This crate models the radio-access and backhaul layer of a multi-cell
//! wireless edge network exactly as assumed by the TrimCaching paper
//! (Qu et al., ICDCS 2024, Section III-A and VII-A):
//!
//! * edge servers (base stations) and users are points in a square
//!   deployment area ([`geometry`]);
//! * the expected downlink rate from an edge server to an associated user
//!   follows the Shannon-capacity expression of Eq. (1) with a power-law
//!   path loss ([`pathloss`], [`channel`]);
//! * small-scale fading is Rayleigh; the cache-hit evaluation in the paper
//!   is averaged over ~10³ Rayleigh realisations ([`channel::Fading`]);
//! * each edge server splits its total bandwidth and transmit power evenly
//!   across its expected number of active associated users
//!   ([`allocation`]);
//! * edge servers are interconnected by constant-rate backhaul links
//!   ([`backhaul`]);
//! * users are covered by every edge server within a fixed coverage radius
//!   ([`coverage`]).
//!
//! # Example
//!
//! ```
//! use trimcaching_wireless::{
//!     channel::expected_rate_bps,
//!     geometry::Point,
//!     params::RadioParams,
//! };
//!
//! let params = RadioParams::paper_defaults();
//! let server = Point::new(0.0, 0.0);
//! let user = Point::new(100.0, 50.0);
//! // A single active user receives the full bandwidth and power.
//! let rate = expected_rate_bps(
//!     params.total_bandwidth_hz,
//!     params.total_power_w(),
//!     server.distance(user),
//!     &params,
//! );
//! assert!(rate > 0.0);
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

pub mod allocation;
pub mod backhaul;
pub mod channel;
pub mod coverage;
pub mod error;
pub mod geometry;
pub mod params;
pub mod pathloss;
pub mod shadowing;

pub use allocation::PerUserAllocation;
pub use backhaul::Backhaul;
pub use channel::{expected_rate_bps, Fading, RateContext, RayleighFading};
pub use coverage::CoverageMap;
pub use error::WirelessError;
pub use geometry::{DeploymentArea, Point};
pub use params::RadioParams;
pub use pathloss::{PathLossModel, PowerLawPathLoss};
pub use shadowing::{LogNormalShadowing, ShadowedRayleigh};

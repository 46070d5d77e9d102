//! Shared domain types for the PPEP reproduction.
//!
//! This crate defines the vocabulary every other `ppep-*` crate speaks:
//!
//! * strongly-typed physical [`units`] (volts, hertz, watts, kelvin,
//!   joules, seconds) so that a power can never be confused with an
//!   energy at a call site;
//! * voltage-frequency state descriptions ([`vf`]) including the exact
//!   five-state table of the AMD FX-8320 used throughout the paper;
//! * the chip [`topology`] (compute units, cores, north bridge) of the
//!   two evaluation platforms;
//! * sampling [`time`] constants (the paper's 20 ms power samples and
//!   200 ms DVFS decision intervals);
//! * the common [`Error`] type.
//!
//! # Example
//!
//! ```
//! use ppep_types::vf::VfTable;
//!
//! let table = VfTable::fx8320();
//! let vf5 = table.highest();
//! assert_eq!(table.point(vf5).frequency.as_ghz(), 3.5);
//! assert_eq!(table.point(vf5).voltage.as_volts(), 1.320);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Exhaustive matches and bound span guards in non-test code; each
// surviving site carries `#[expect(.., reason)]` (DESIGN.md §8).
#![cfg_attr(not(test), warn(clippy::wildcard_enum_match_arm))]
#![cfg_attr(not(test), warn(clippy::let_underscore_must_use))]

pub mod error;
pub mod time;
pub mod topology;
pub mod units;
pub mod vf;

pub use error::{Error, RejectReason, Result};
pub use topology::{CoreId, CuId, Topology};
pub use units::{Celsius, Gigahertz, Joules, Kelvin, Seconds, Volts, Watts};
pub use vf::{VfPoint, VfStateId, VfTable};

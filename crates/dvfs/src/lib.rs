//! DVFS policies built on PPEP's all-VF projections (§V).
//!
//! * [`capping`] — the one-step power-capping controller of Fig. 7
//!   (pick the fastest per-CU assignment that fits the cap, in a
//!   single decision interval) and the reactive iterative baseline it
//!   is compared against.
//! * [`optimal`] — energy-optimal and EDP-optimal state selection
//!   (§V-C1), plus the per-thread energy/EDP metrics behind Figs. 8
//!   and 9.
//! * [`governor`] — simple reference governors (static pin,
//!   ondemand-style utilisation reactive) for context.
//! * [`boost`] — the §IV-E extension: a firmware-style predictive
//!   boost controller over the FX-8320's (normally hidden) boost
//!   states.
//! * [`arbiter`] — the shared socket power-budget arbiter behind the
//!   multi-tenant capping service: deterministic max-min fair grants
//!   whose sum never exceeds the socket cap.
//!
//! All controllers implement [`ppep_core::daemon::DvfsController`], so
//! they plug into the same daemon loop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// No panics, exhaustive matches and bound span guards in non-test code;
// each surviving site carries `#[expect(.., reason)]` (DESIGN.md §8).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![cfg_attr(not(test), warn(clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::panic))]
#![cfg_attr(not(test), warn(clippy::unreachable))]
#![cfg_attr(not(test), warn(clippy::todo))]
#![cfg_attr(not(test), warn(clippy::unimplemented))]
#![cfg_attr(not(test), warn(clippy::indexing_slicing))]
#![cfg_attr(not(test), warn(clippy::wildcard_enum_match_arm))]
#![cfg_attr(not(test), warn(clippy::let_underscore_must_use))]

pub mod arbiter;
pub mod boost;
pub mod capping;
pub mod governor;
pub mod optimal;

pub use arbiter::{ArbiterOp, BudgetArbiter, EpochArbiter, GrantSnapshot};
pub use boost::BoostController;
pub use capping::{IterativeCapping, OneStepCapping, SteepestDrop};
pub use optimal::{EdBetaOptimalController, EdpOptimalController, EnergyOptimalController};

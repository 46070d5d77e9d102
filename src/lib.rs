//! Umbrella crate for the PPEP reproduction workspace.
//!
//! This crate exists to host the repository-level examples
//! (`examples/`) and cross-crate integration tests (`tests/`). The
//! actual functionality lives in the `ppep-*` crates under `crates/`;
//! the most convenient entry point for downstream users is
//! [`ppep_core`], which re-exports the full public API.
//!
//! # Quickstart
//!
//! ```
//! use ppep_core::prelude::*;
//! use ppep_rig::TrainingRig;
//!
//! // Build a simulated AMD FX-8320-like chip and train PPEP on it.
//! let mut rig = TrainingRig::fx8320(42);
//! let trained = rig.train_quick().expect("training succeeds");
//! assert!(trained.dynamic_model().coefficient_count() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Exhaustive matches and bound span guards in non-test code; each
// surviving site carries `#[expect(.., reason)]` (DESIGN.md §8).
#![cfg_attr(not(test), warn(clippy::wildcard_enum_match_arm))]
#![cfg_attr(not(test), warn(clippy::let_underscore_must_use))]

pub use ppep_core as core;
pub use ppep_dvfs as dvfs;
pub use ppep_experiments as experiments;
pub use ppep_models as models;
pub use ppep_pmc as pmc;
pub use ppep_regress as regress;
pub use ppep_rig as rig;
pub use ppep_sim as sim;
pub use ppep_telemetry as telemetry;
pub use ppep_types as types;
pub use ppep_workloads as workloads;

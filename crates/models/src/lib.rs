//! PPEP's predictive models (§III and §IV of the paper).
//!
//! * [`cpi`] — the LL-MAB online CPI predictor: splits CPI into core
//!   CPI and memory CPI and rescales the memory part with frequency
//!   (Eq. 1).
//! * [`idle`] — the chip idle-power model `Pidle = Widle1(V)·T +
//!   Widle0(V)` with third-order polynomials of voltage (Eq. 2).
//! * [`dynamic`] — the nine-event dynamic power model with
//!   `(Vn/V5)^α` scaling of the core-event weights (Eq. 3).
//! * [`event_pred`] — the hardware-event predictor built on
//!   Observations 1 and 2 (Eqs. 4–6): event counts at any VF state
//!   from counts measured at one.
//! * [`pg`] — the power-gating-aware idle decomposition
//!   `Pidle(CU)/Pidle(NB)/Pidle(Base)` and the per-core idle
//!   attribution of Eqs. 7–8 (Fig. 4 methodology).
//! * [`chip_power`] — the composed chip power model (idle + dynamic)
//!   and its cross-VF prediction path.
//! * [`green_governors`] — the CV²f baseline of Spiliopoulos et al.
//!   used for the Fig. 6 comparison.
//! * [`soa`] — struct-of-arrays coefficient tables (pre-scaled Eq. 3
//!   weights, flattened VF ladders) for the batch projection kernel
//!   in `ppep-core`.
//! * [`trainer`] — trace collection against the simulator, model
//!   fitting, and 4-fold cross-validation.
//! * [`persist`] — save/load a trained bundle as human-readable text,
//!   so calibration really is the one-time effort the paper claims.
//!
//! # Example
//!
//! ```
//! use ppep_models::cpi::CpiObservation;
//! use ppep_types::Gigahertz;
//!
//! // Measured at 3.5 GHz: CPI 2.0, of which 1.2 is memory time.
//! let obs = CpiObservation::new(2.0, 1.2, Gigahertz::new(3.5)).unwrap();
//! // At 1.4 GHz memory cycles shrink proportionally.
//! let predicted = obs.predict_cpi(Gigahertz::new(1.4));
//! assert!((predicted - (0.8 + 1.2 * 1.4 / 3.5)).abs() < 1e-12);
//! ```

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

pub mod chip_power;
pub mod cpi;
pub mod dynamic;
pub mod event_pred;
pub mod green_governors;
pub mod idle;
pub mod persist;
pub mod pg;
pub mod soa;
pub mod trainer;

pub use chip_power::ChipPowerModel;
pub use cpi::CpiObservation;
pub use dynamic::DynamicPowerModel;
pub use event_pred::{CpiProjection, HwEventPredictor};
pub use idle::IdlePowerModel;
pub use pg::PgIdleModel;
pub use soa::SoaCoeffs;
pub use trainer::TrainedModels;

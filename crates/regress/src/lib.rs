//! Numerical substrate for the PPEP reproduction.
//!
//! The paper's models are all fit with ordinary linear regression
//! (Eq. 2's idle model, Eq. 3's nine-event dynamic model) and validated
//! with 4-fold cross-validation and average-absolute-error statistics.
//! This crate provides everything those pipelines need, implemented
//! from scratch so the workspace has no external linear-algebra
//! dependency:
//!
//! * a small dense [`matrix::Matrix`] with the usual operations;
//! * direct solvers ([`solve`]): Gaussian elimination with partial
//!   pivoting, Cholesky, and Householder-QR least squares;
//! * [`linreg::LinearRegression`] (optionally ridge-regularised, with
//!   optional non-negativity projection) and [`polyfit`];
//! * summary [`stats`] (mean, standard deviation, AAE, percentiles);
//! * [`crossval`] k-fold index splitting.
//!
//! # Example: fitting a line
//!
//! ```
//! use ppep_regress::linreg::LinearRegression;
//!
//! // y = 3 + 2 x, exactly.
//! let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
//! let ys: Vec<f64> = (0..10).map(|i| 3.0 + 2.0 * i as f64).collect();
//! let fit = LinearRegression::fit(&xs, &ys, true).expect("well-posed");
//! assert!((fit.intercept() - 3.0).abs() < 1e-9);
//! assert!((fit.coefficients()[0] - 2.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Exhaustive matches and bound span guards in non-test code; each
// surviving site carries `#[expect(.., reason)]` (DESIGN.md §8).
#![cfg_attr(not(test), warn(clippy::wildcard_enum_match_arm))]
#![cfg_attr(not(test), warn(clippy::let_underscore_must_use))]

pub mod crossval;
pub mod linreg;
pub mod matrix;
pub mod polyfit;
pub mod solve;
pub mod stats;

pub use crossval::KFold;
pub use linreg::LinearRegression;
pub use matrix::Matrix;
pub use polyfit::Polynomial;
pub use stats::Summary;

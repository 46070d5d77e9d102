//! Synthetic workloads standing in for SPEC CPU2006, PARSEC, and the
//! NAS Parallel Benchmarks.
//!
//! The paper trains and validates on 152 benchmark combinations (§II):
//! 61 multi-programmed SPEC CPU2006 runs (29 single + 15 double +
//! 10 triple + 7 quad), 51 multi-threaded PARSEC runs, and 40
//! multi-threaded NPB runs. Those binaries and inputs are not
//! available here, so this crate synthesises *phase-structured
//! microarchitectural fingerprints* with the same names, the same
//! combination structure, and suite-appropriate characteristics
//! (memory-bound vs. CPU-bound classes, rapid-phase outliers like
//! `dedup`/`IS`/`DC`, short-running benchmarks). The PPEP models only
//! ever observe event counts, so these fingerprints exercise exactly
//! the same code paths as the real suites (see `DESIGN.md`,
//! substitutions table).
//!
//! * [`phase`] — the per-phase fingerprint: per-instruction event
//!   rates plus the core/memory CPI decomposition;
//! * [`program`] — a thread program: a looping sequence of phases
//!   consumed by instructions executed, with a cursor type;
//! * [`spec`] — workload specifications (named groups of thread
//!   programs) and the benchmark metadata table;
//! * [`suites`] — generators for the three suites and the
//!   [`suites::bench_a`] microbenchmark of §IV-D;
//! * [`combos`] — the exact 152-combination roster, including the
//!   Fig. 6 SPEC pairings.
//!
//! # Example
//!
//! ```
//! use ppep_workloads::combos::full_roster;
//!
//! let roster = full_roster(7);
//! assert_eq!(roster.len(), 152);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Exhaustive matches and bound span guards in non-test code; each
// surviving site carries `#[expect(.., reason)]` (DESIGN.md §8).
#![cfg_attr(not(test), warn(clippy::wildcard_enum_match_arm))]
#![cfg_attr(not(test), warn(clippy::let_underscore_must_use))]

pub mod combos;
pub mod phase;
pub mod program;
pub mod spec;
pub mod suites;

pub use phase::PhaseFingerprint;
pub use program::{ThreadCursor, ThreadProgram};
pub use spec::{MemoryClass, Suite, WorkloadSpec};

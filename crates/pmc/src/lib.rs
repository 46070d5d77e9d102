//! Performance-monitoring-counter (PMC) substrate.
//!
//! The paper gathers twelve hardware events per core (Table I) through
//! the six performance counters of an AMD FX-8320, time-multiplexing
//! the counters and reading them via `msr-tools` (§II, §IV-B1). This
//! crate reproduces that stack in software:
//!
//! * [`events`] — the twelve Table I events with their PMC codes;
//! * [`counts`] — dense per-event count/rate vectors;
//! * [`counter`] — 48-bit wrapping hardware counters;
//! * [`msr`] — a virtual MSR device exposing the AMD `PERF_CTL`/
//!   `PERF_CTR` register pairs;
//! * [`pmu`] — a six-slot per-core PMU that time-multiplexes the
//!   twelve events in two groups and extrapolates counts, reproducing
//!   the multiplexing error the paper names as an error source;
//! * [`sampler`] — turns sub-tick PMU readings into per-interval
//!   [`sampler::IntervalSample`]s for the models.
//!
//! # Example
//!
//! ```
//! use ppep_pmc::events::EventId;
//!
//! assert_eq!(EventId::RetiredInstructions.code(), 0x0c0);
//! assert_eq!(EventId::MabWaitCycles.paper_id(), 12);
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

pub mod counter;
pub mod counts;
pub mod events;
pub mod msr;
pub mod pmu;
pub mod sampler;

pub use counts::{EventCounts, PerEvent};
pub use events::EventId;
pub use pmu::Pmu;
pub use sampler::IntervalSample;

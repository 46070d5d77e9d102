//! `ppep-serve` — the multi-tenant PPEP capping service.
//!
//! Earlier layers supervise **one** daemon on **one** machine. This
//! crate hosts many: a [`CappingService`] runs one resilient daemon
//! per tenant behind the session wire protocol
//! ([`ppep_telemetry::session`]), arbitrating a shared socket power
//! budget across all of them. The robustness contract is built from
//! four mechanisms:
//!
//! * **Admission control** ([`service`]) — sessions past the slot or
//!   budget limits are turned away with a typed
//!   [`ppep_types::RejectReason`] instead of degrading everyone.
//! * **Bulkheads** ([`service`]) — each tenant gets its own platform
//!   ([`platform::SessionPlatform`]), controller, supervisor, and
//!   budget grant; panics and fatal faults evict one tenant and touch
//!   nothing else.
//! * **Budget arbitration** ([`ppep_dvfs::arbiter`]) — a failsafed
//!   tenant's watts flow to the survivors and flow back on recovery;
//!   the aggregate never exceeds the socket cap.
//! * **Deadline watchdogs** ([`service`]) — silent tenants degrade
//!   through the supervisor's ladder and are eventually evicted with
//!   [`ppep_types::Error::DeadlineExceeded`].
//!
//! The service is sharded ([`shard`]): tenants are routed to
//! [`ServeConfig::shards`] worker shards, each owning a disjoint
//! tenant group's bulkheads, with frame decode/CRC and encode
//! pipelined outside every lock and the epoch-stepped budget arbiter
//! ([`ppep_dvfs::EpochArbiter`]) as the only cross-shard state. A
//! real transport ([`transport`]) serves the same v2 session framing
//! over a Unix-domain socket (or localhost TCP), so drivers can
//! exercise syscall boundaries instead of in-process calls.
//!
//! [`chaos`] proves the contract by firing a fault storm at one
//! tenant and gating on blast-radius containment — including across
//! shards and over the socket; [`loadgen`] measures frame throughput
//! and round-trip latency under concurrent clients, from a handful to
//! thousands.
//!
//! On top of the robustness contract sits per-tenant scorekeeping:
//! [`slo`] tracks reply latency and cap adherence for each tenant,
//! and when [`ServeConfig::scorer`] is set every tenant's daemon also
//! scores its own predictions (see `ppep_obs::accuracy`). The joined
//! scorecard is exported through the health JSONL and the
//! [`ppep_telemetry::snapshot::MetricsSnapshot`] wire frame
//! ([`CappingService::metrics_snapshots`]).

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

pub mod chaos;
pub mod loadgen;
pub mod platform;
pub mod service;
pub mod shard;
pub mod slo;
pub mod transport;

pub use chaos::{ChaosConfig, ChaosReport};
pub use loadgen::{LoadGenConfig, LoadGenReport};
pub use platform::SessionPlatform;
pub use service::{CappingService, ServeConfig, TenantStatus, TickReport};
pub use shard::ShardGauge;
pub use slo::SloTracker;
pub use transport::{
    FrameConn, ServeAddr, ServeListener, ServerHandle, ServiceLane, ShutdownReport, TransportKind,
};

#[cfg(test)]
pub(crate) mod testutil {
    //! One quick-trained engine shared by every in-crate test.
    use ppep_core::Ppep;
    use ppep_rig::TrainingRig;
    use std::sync::OnceLock;

    pub(crate) fn engine() -> &'static Ppep {
        static PPEP: OnceLock<Ppep> = OnceLock::new();
        PPEP.get_or_init(|| {
            Ppep::new(
                TrainingRig::fx8320(42)
                    .train_quick()
                    .expect("training succeeds"),
            )
        })
    }
}

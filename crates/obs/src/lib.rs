//! `ppep-obs`: observability for the 200 ms online loop.
//!
//! The paper's central claim is that PPEP runs *online*: the whole
//! sample → CPI@allVF → events@allVF → power@allVF → decide pipeline
//! (Fig. 5) completes every 200 ms with negligible overhead. This crate
//! is the repro's instrument for checking that claim on itself:
//!
//! * a [`metrics`] registry — counters, gauges, and fixed-bucket
//!   latency [`metrics::Histogram`]s with p50/p95/p99/max;
//! * [`span`]-based structured tracing of each pipeline [`Stage`],
//!   recorded into a bounded [`span::SpanRing`] whose sequence numbers
//!   stay monotonic across wraparound;
//! * [`export`] to JSONL and to Chrome `trace_event` JSON (loadable in
//!   `chrome://tracing` / Perfetto);
//! * a per-interval [`overhead::OverheadProfile`] reporting framework
//!   compute as a fraction of the 200 ms decision budget.
//!
//! Everything sits behind the [`Recorder`] trait. The default
//! [`NoopRecorder`] reports `enabled() == false`, and every
//! instrumentation site in the workspace checks that flag before
//! reading clocks or formatting names, so the hot loop pays roughly one
//! branch per site when tracing is off. Recording must never feed back
//! into decisions: a trace-on daemon run is bit-identical to a
//! trace-off run (enforced by a property test in the workspace root).
//!
//! Like `ppep-lint`, the crate is hand-rolled and dependency-free
//! (only `ppep-types`), so it builds with zero registry access.
//!
//! # Example
//!
//! ```
//! use ppep_obs::{Recorder, RecorderHandle, Stage, TraceRecorder};
//! use std::sync::Arc;
//!
//! let tracer = Arc::new(TraceRecorder::new());
//! let rec = RecorderHandle::new(tracer.clone());
//! {
//!     let _g = rec.span(Stage::Decide, 0);
//!     // ... work being timed ...
//! }
//! rec.incr("dvfs.vf_transitions");
//! let snap = tracer.snapshot();
//! assert_eq!(snap.spans.len(), 1);
//! assert_eq!(snap.counter("dvfs.vf_transitions"), 1);
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

pub mod accuracy;
pub mod export;
pub mod metrics;
pub mod overhead;
pub mod span;
pub mod trace;

pub use accuracy::{DriftDetector, ErrorTrack, PredictionScorer, ScorerConfig};
pub use metrics::{Histogram, MetricsRegistry};
pub use overhead::OverheadProfile;
pub use span::{EventRecord, SpanRecord, SpanRing, Stage};
pub use trace::{TraceRecorder, TraceSnapshot};

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Sink for spans, counters, gauges, and instant events.
///
/// Implementations must be cheap when disabled: every method other
/// than [`Recorder::enabled`] is only called after an `enabled()`
/// check by the [`RecorderHandle`] convenience layer.
pub trait Recorder: Send + Sync {
    /// Whether this recorder keeps data. Instrumentation sites skip
    /// clock reads and name formatting when this is `false`.
    fn enabled(&self) -> bool;

    /// Monotonic nanoseconds since the recorder's epoch.
    fn now_ns(&self) -> u64;

    /// Records one completed pipeline-stage span.
    fn record_span(&self, stage: Stage, interval: u64, start_ns: u64, dur_ns: u64);

    /// Adds `by` to the named counter.
    fn add(&self, counter: &str, by: u64);

    /// Sets the named gauge to `value`.
    fn set_gauge(&self, gauge: &str, value: f64);

    /// Records a named instant event (e.g. a health transition).
    fn event(&self, name: &str, interval: u64);

    /// Records one value into the named histogram. Defaults to a
    /// no-op so span-only recorders need not care; [`TraceRecorder`]
    /// routes names ending in `_pct` to the
    /// [`metrics::Histogram::error_pct`] layout and everything else to
    /// [`metrics::Histogram::latency_us`].
    fn observe(&self, _histogram: &str, _value: f64) {}
}

/// The default recorder: keeps nothing, reports `enabled() == false`.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn now_ns(&self) -> u64 {
        0
    }

    fn record_span(&self, _stage: Stage, _interval: u64, _start_ns: u64, _dur_ns: u64) {}

    fn add(&self, _counter: &str, _by: u64) {}

    fn set_gauge(&self, _gauge: &str, _value: f64) {}

    fn event(&self, _name: &str, _interval: u64) {}
}

/// Cloneable handle instrumented types hold on to.
///
/// Wraps an `Arc<dyn Recorder>` so that `Ppep`, the daemons, the
/// simulator, and the DVFS controllers can all share one sink while
/// keeping their `Clone`/`Debug` derives. `Default` is the no-op
/// recorder.
///
/// A handle also carries a flat namespace prefix (see
/// [`RecorderHandle::labeled`]): counter/gauge/event/histogram names
/// are prefixed before reaching the sink, spans are not. Keeping the
/// prefix in the handle — one concatenated `String`, not a chain of
/// decorator recorders — means nested labels compose textually
/// (`tenant.3.` + `daemon.` = `tenant.3.daemon.`) and every name pays
/// exactly one `format!` regardless of label depth.
#[derive(Clone)]
pub struct RecorderHandle {
    inner: Arc<dyn Recorder>,
    prefix: String,
}

impl RecorderHandle {
    /// Wraps a recorder implementation (no namespace prefix).
    pub fn new(inner: Arc<dyn Recorder>) -> Self {
        Self {
            inner,
            prefix: String::new(),
        }
    }

    /// The disabled default.
    pub fn noop() -> Self {
        Self {
            inner: Arc::new(NoopRecorder),
            prefix: String::new(),
        }
    }

    /// Applies this handle's namespace prefix to a metric name,
    /// avoiding the allocation entirely for unlabeled handles.
    fn scoped<R>(&self, name: &str, f: impl FnOnce(&str) -> R) -> R {
        if self.prefix.is_empty() {
            f(name)
        } else {
            f(&format!("{}{name}", self.prefix))
        }
    }

    /// Whether the underlying recorder keeps data.
    pub fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    /// Monotonic nanoseconds since the recorder's epoch (0 when
    /// disabled).
    pub fn now_ns(&self) -> u64 {
        if self.inner.enabled() {
            self.inner.now_ns()
        } else {
            0
        }
    }

    /// Opens a stage span for `interval`. The returned guard records
    /// the elapsed time when dropped; bind it (`let _g = ...`) so it
    /// covers the region being timed. `SpanGuard` is `#[must_use]`, so
    /// a guard dropped as a temporary fails the clippy gate.
    pub fn span(&self, stage: Stage, interval: u64) -> SpanGuard<'_> {
        let timer = if self.inner.enabled() {
            Some((self.inner.now_ns(), Instant::now()))
        } else {
            None
        };
        SpanGuard {
            rec: self.inner.as_ref(),
            stage,
            interval,
            timer,
        }
    }

    /// Records one pre-measured span.
    pub fn record_span(&self, stage: Stage, interval: u64, start_ns: u64, dur_ns: u64) {
        if self.inner.enabled() {
            self.inner.record_span(stage, interval, start_ns, dur_ns);
        }
    }

    /// Adds `by` to the named counter.
    pub fn add(&self, counter: &str, by: u64) {
        if self.inner.enabled() && by > 0 {
            self.scoped(counter, |name| self.inner.add(name, by));
        }
    }

    /// Increments the named counter by one.
    pub fn incr(&self, counter: &str) {
        self.add(counter, 1);
    }

    /// Sets the named gauge.
    pub fn set_gauge(&self, gauge: &str, value: f64) {
        if self.inner.enabled() {
            self.scoped(gauge, |name| self.inner.set_gauge(name, value));
        }
    }

    /// Records a named instant event.
    pub fn event(&self, name: &str, interval: u64) {
        if self.inner.enabled() {
            self.scoped(name, |scoped| self.inner.event(scoped, interval));
        }
    }

    /// Records one value into the named histogram.
    pub fn observe(&self, histogram: &str, value: f64) {
        if self.inner.enabled() {
            self.scoped(histogram, |name| self.inner.observe(name, value));
        }
    }

    /// Derives a handle that prefixes every counter, gauge, event, and
    /// histogram name with `prefix` before forwarding to the same sink.
    ///
    /// The multi-tenant service labels each tenant's daemon with
    /// `tenant.<id>.` so one shared recorder keeps per-tenant streams
    /// apart (`tenant.3.fault.transient`, `tenant.3.health.failsafe`,
    /// …). Labels compose: a sub-recorder labeled `daemon.` inside a
    /// handle labeled `tenant.3.` emits `tenant.3.daemon.*`, so nested
    /// components can namespace themselves without colliding across
    /// tenants. Spans are forwarded unprefixed — stages are
    /// chip-pipeline structure, not per-tenant namespace. Labeling a
    /// disabled recorder stays disabled and free.
    #[must_use]
    pub fn labeled(&self, prefix: &str) -> RecorderHandle {
        if !self.inner.enabled() {
            return RecorderHandle::noop();
        }
        RecorderHandle {
            inner: Arc::clone(&self.inner),
            prefix: format!("{}{prefix}", self.prefix),
        }
    }
}

impl Default for RecorderHandle {
    fn default() -> Self {
        Self::noop()
    }
}

impl fmt::Debug for RecorderHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RecorderHandle")
            .field("enabled", &self.inner.enabled())
            .finish()
    }
}

/// RAII guard returned by [`RecorderHandle::span`]; records the span
/// on drop. When the recorder is disabled the guard holds no clock
/// and drop is free.
#[must_use = "a span guard records on drop; bind it (`let _g = rec.span(..)`) for the region"]
pub struct SpanGuard<'a> {
    rec: &'a dyn Recorder,
    stage: Stage,
    interval: u64,
    timer: Option<(u64, Instant)>,
}

impl SpanGuard<'_> {
    /// Cancels the span: the guard drops without recording anything.
    ///
    /// For regions that turn out to be no-ops — a retry probe against
    /// a substrate whose `resample` declines — recording the span
    /// would misstate the pipeline (a `Sample` span with no sample
    /// behind it).
    pub fn dismiss(mut self) {
        self.timer = None;
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((start_ns, started)) = self.timer.take() {
            let dur_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.rec
                .record_span(self.stage, self.interval, start_ns, dur_ns);
        }
    }
}

/// Accumulates per-stage time across a tight loop and emits one span
/// per stage on [`StageClock::flush`].
///
/// `Ppep::project` touches every (core, VF) pair, so opening a guard
/// per call would flood the ring with hundreds of sub-microsecond
/// spans per interval. The clock instead sums each stage's time and
/// flushes a single span per stage per interval, laid out
/// back-to-back from the clock's start so the Chrome trace still
/// shows the pipeline shape. When the recorder is disabled,
/// [`StageClock::time`] is a direct call with no clock reads.
pub struct StageClock<'a> {
    rec: &'a RecorderHandle,
    enabled: bool,
    t0_ns: u64,
    acc: [u64; Stage::COUNT],
}

impl<'a> StageClock<'a> {
    /// Starts a clock against `rec`.
    pub fn new(rec: &'a RecorderHandle) -> Self {
        let enabled = rec.enabled();
        Self {
            rec,
            enabled,
            t0_ns: if enabled { rec.now_ns() } else { 0 },
            acc: [0; Stage::COUNT],
        }
    }

    /// Runs `f`, attributing its wall time to `stage`.
    pub fn time<T>(&mut self, stage: Stage, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let started = Instant::now();
        let out = f();
        let dur = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if let Some(slot) = self.acc.get_mut(stage.index()) {
            *slot += dur;
        }
        out
    }

    /// Emits one span per stage with accumulated time, tagged with
    /// `interval`.
    pub fn flush(self, interval: u64) {
        if !self.enabled {
            return;
        }
        let mut at = self.t0_ns;
        for (stage, dur) in Stage::ALL.iter().zip(self.acc.iter()) {
            if *dur > 0 {
                self.rec.record_span(*stage, interval, at, *dur);
                at = at.saturating_add(*dur);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_is_disabled_and_inert() {
        let rec = RecorderHandle::noop();
        assert!(!rec.enabled());
        assert_eq!(rec.now_ns(), 0);
        {
            let _g = rec.span(Stage::Decide, 3);
        }
        rec.incr("x");
        rec.set_gauge("g", 1.0);
        rec.event("e", 0);
    }

    #[test]
    fn default_handle_is_noop() {
        assert!(!RecorderHandle::default().enabled());
        let dbg = format!("{:?}", RecorderHandle::default());
        assert!(dbg.contains("enabled: false"));
    }

    #[test]
    fn span_guard_records_on_drop() {
        let tracer = Arc::new(TraceRecorder::new());
        let rec = RecorderHandle::new(tracer.clone());
        {
            let _g = rec.span(Stage::Sample, 7);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let snap = tracer.snapshot();
        assert_eq!(snap.spans.len(), 1);
        let s = &snap.spans[0];
        assert_eq!(s.stage, Stage::Sample);
        assert_eq!(s.interval, 7);
        assert!(s.dur_ns >= 1_000_000, "slept 1 ms, got {} ns", s.dur_ns);
    }

    #[test]
    fn dismissed_span_records_nothing() {
        let tracer = Arc::new(TraceRecorder::new());
        let rec = RecorderHandle::new(tracer.clone());
        let g = rec.span(Stage::Sample, 7);
        g.dismiss();
        assert!(tracer.snapshot().spans.is_empty());
    }

    #[test]
    fn stage_clock_accumulates_and_flushes_one_span_per_stage() {
        let tracer = Arc::new(TraceRecorder::new());
        let rec = RecorderHandle::new(tracer.clone());
        let mut clock = StageClock::new(&rec);
        for _ in 0..3 {
            clock.time(Stage::CpiPredict, || std::hint::black_box(1 + 1));
            clock.time(Stage::Pdyn, || std::hint::black_box(2 + 2));
        }
        clock.flush(4);
        let snap = tracer.snapshot();
        assert_eq!(snap.spans.len(), 2);
        assert!(snap.spans.iter().all(|s| s.interval == 4));
        assert_eq!(snap.spans[0].stage, Stage::CpiPredict);
        assert_eq!(snap.spans[1].stage, Stage::Pdyn);
        // Back-to-back layout: second span starts where the first ends.
        assert_eq!(
            snap.spans[1].start_ns,
            snap.spans[0].start_ns + snap.spans[0].dur_ns
        );
    }

    #[test]
    fn labeled_handle_prefixes_names_but_not_spans() {
        let tracer = Arc::new(TraceRecorder::new());
        let rec = RecorderHandle::new(tracer.clone());
        let tenant = rec.labeled("tenant.3.");
        assert!(tenant.enabled());
        tenant.incr("fault.transient");
        tenant.set_gauge("cap_w", 45.0);
        tenant.event("health.failsafe", 9);
        {
            let _g = tenant.span(Stage::Decide, 9);
        }
        rec.incr("fault.transient");
        let snap = tracer.snapshot();
        assert_eq!(snap.counter("tenant.3.fault.transient"), 1);
        assert_eq!(snap.counter("fault.transient"), 1);
        assert_eq!(snap.spans.len(), 1, "spans forward unprefixed");
        assert_eq!(snap.spans[0].stage, Stage::Decide);
    }

    #[test]
    fn nested_labels_compose_into_one_prefix() {
        // Regression: labeling a labeled handle must stack prefixes
        // (`tenant.3.daemon.`), not silently replace them (`daemon.`),
        // or two tenants' daemon-scoped metrics collide in the sink.
        let tracer = Arc::new(TraceRecorder::new());
        let rec = RecorderHandle::new(tracer.clone());
        let daemon3 = rec.labeled("tenant.3.").labeled("daemon.");
        let daemon4 = rec.labeled("tenant.4.").labeled("daemon.");
        daemon3.incr("steps");
        daemon4.incr("steps");
        daemon4.incr("steps");
        daemon3.set_gauge("cap_w", 40.0);
        daemon3.observe("score_pct", 2.5);
        let snap = tracer.snapshot();
        assert_eq!(snap.counter("tenant.3.daemon.steps"), 1);
        assert_eq!(snap.counter("tenant.4.daemon.steps"), 2);
        assert_eq!(snap.counter("daemon.steps"), 0, "prefixes must not drop");
        assert_eq!(snap.gauges.get("tenant.3.daemon.cap_w"), Some(&40.0));
        assert!(snap.histograms.contains_key("tenant.3.daemon.score_pct"));
    }

    #[test]
    fn observe_routes_pct_names_to_the_error_layout() {
        let tracer = Arc::new(TraceRecorder::new());
        let rec = RecorderHandle::new(tracer.clone());
        rec.observe("accuracy.cpi.err_pct", 3.0);
        rec.observe("reply.latency", 3.0);
        let snap = tracer.snapshot();
        let err = snap.histograms.get("accuracy.cpi.err_pct").expect("hist");
        // 3.0% lands in the 1-2-5 error layout's <=5 bucket.
        assert!(err.buckets().any(|(bound, n)| bound == 5.0 && n == 1));
        let lat = snap.histograms.get("reply.latency").expect("hist");
        // 3 µs lands in the latency layout's <=5 µs bucket, whose
        // neighbours differ from the error layout's.
        assert!(lat.buckets().any(|(bound, n)| bound == 5.0 && n == 1));
        assert!(lat.buckets().any(|(bound, _)| bound == 200_000.0));
    }

    #[test]
    fn labeling_a_noop_recorder_stays_noop() {
        let rec = RecorderHandle::noop().labeled("tenant.0.");
        assert!(!rec.enabled());
        rec.incr("x");
    }

    #[test]
    fn stage_clock_on_noop_recorder_emits_nothing() {
        let rec = RecorderHandle::noop();
        let mut clock = StageClock::new(&rec);
        let v = clock.time(Stage::Compose, || 41 + 1);
        assert_eq!(v, 42);
        clock.flush(0);
    }
}

//! The in-memory recording [`Recorder`] implementation.

use crate::metrics::{Histogram, MetricsRegistry};
use crate::span::{EventRecord, SpanRecord, SpanRing, Stage};
use crate::Recorder;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Default span-ring capacity: ~8 k intervals × 8 stages.
const DEFAULT_SPAN_CAPACITY: usize = 65_536;
/// Default bound on retained instant events.
const DEFAULT_EVENT_CAPACITY: usize = 4_096;

struct Inner {
    ring: SpanRing,
    events: VecDeque<EventRecord>,
    event_capacity: usize,
    events_evicted: u64,
    metrics: MetricsRegistry,
}

/// A [`Recorder`] that keeps spans in a bounded ring, events in a
/// bounded queue, and metrics in a [`MetricsRegistry`]. Every recorded
/// span also feeds a `stage.<name>` latency histogram (µs).
///
/// Interior state sits behind a `Mutex`; the recorder is shared via
/// `Arc` between the daemon, simulator, and controllers, which all run
/// on one thread in the repro, so the lock is uncontended.
pub struct TraceRecorder {
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl TraceRecorder {
    /// A recorder with default capacities.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_SPAN_CAPACITY, DEFAULT_EVENT_CAPACITY)
    }

    /// A recorder holding at most `spans` spans and `events` events.
    pub fn with_capacity(spans: usize, events: usize) -> Self {
        Self {
            epoch: Instant::now(),
            inner: Mutex::new(Inner {
                ring: SpanRing::new(spans),
                events: VecDeque::new(),
                event_capacity: events.max(1),
                events_evicted: 0,
                metrics: MetricsRegistry::new(),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A consistent copy of everything recorded so far.
    pub fn snapshot(&self) -> TraceSnapshot {
        let inner = self.lock();
        TraceSnapshot {
            spans: inner.ring.to_vec(),
            spans_evicted: inner.ring.evicted(),
            events: inner.events.iter().cloned().collect(),
            events_evicted: inner.events_evicted,
            counters: inner.metrics.counters().clone(),
            gauges: inner.metrics.gauges().clone(),
            histograms: inner.metrics.histograms().clone(),
        }
    }
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder for TraceRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn record_span(&self, stage: Stage, interval: u64, start_ns: u64, dur_ns: u64) {
        let mut inner = self.lock();
        inner.ring.push(stage, interval, start_ns, dur_ns);
        let name = format!("stage.{}", stage.name());
        inner.metrics.observe(&name, dur_ns as f64 / 1_000.0);
    }

    fn add(&self, counter: &str, by: u64) {
        self.lock().metrics.add(counter, by);
    }

    fn set_gauge(&self, gauge: &str, value: f64) {
        self.lock().metrics.set_gauge(gauge, value);
    }

    fn observe(&self, histogram: &str, value: f64) {
        let mut inner = self.lock();
        if histogram.ends_with("_pct") {
            inner
                .metrics
                .observe_with(histogram, value, Histogram::error_pct);
        } else {
            inner.metrics.observe(histogram, value);
        }
    }

    fn event(&self, name: &str, interval: u64) {
        let at_ns = self.now_ns();
        let mut inner = self.lock();
        if inner.events.len() == inner.event_capacity {
            inner.events.pop_front();
            inner.events_evicted += 1;
        }
        inner.events.push_back(EventRecord {
            name: name.to_string(),
            interval,
            at_ns,
        });
        let key = format!("event.{name}");
        inner.metrics.add(&key, 1);
    }
}

/// Owned copy of a [`TraceRecorder`]'s state at one point in time.
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    /// Retained spans, oldest first.
    pub spans: Vec<SpanRecord>,
    /// Spans dropped by the ring before this snapshot.
    pub spans_evicted: u64,
    /// Retained instant events, oldest first.
    pub events: Vec<EventRecord>,
    /// Events dropped before this snapshot.
    pub events_evicted: u64,
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms by name (includes the per-stage `stage.*` latency
    /// histograms fed by span recording).
    pub histograms: BTreeMap<String, Histogram>,
}

impl TraceSnapshot {
    /// Counter value (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The latency histogram for one pipeline stage, if it ever ran.
    pub fn stage_histogram(&self, stage: Stage) -> Option<&Histogram> {
        self.histograms.get(&format!("stage.{}", stage.name()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_feed_per_stage_histograms() {
        let rec = TraceRecorder::new();
        rec.record_span(Stage::Decide, 0, 0, 5_000); // 5 µs
        rec.record_span(Stage::Decide, 1, 10, 15_000); // 15 µs
        rec.record_span(Stage::Apply, 1, 20, 1_000);
        let snap = rec.snapshot();
        assert_eq!(snap.spans.len(), 3);
        let decide = snap.stage_histogram(Stage::Decide).unwrap();
        assert_eq!(decide.count(), 2);
        assert_eq!(decide.max(), 15.0);
        assert!(snap.stage_histogram(Stage::Sample).is_none());
    }

    #[test]
    fn events_are_bounded_and_counted() {
        let rec = TraceRecorder::with_capacity(16, 2);
        rec.event("health.degraded", 1);
        rec.event("health.healthy", 4);
        rec.event("health.degraded", 9);
        let snap = rec.snapshot();
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.events_evicted, 1);
        assert_eq!(snap.events[0].name, "health.healthy");
        assert_eq!(snap.counter("event.health.degraded"), 2);
        assert_eq!(snap.counter("event.health.healthy"), 1);
    }

    #[test]
    fn now_ns_is_monotonic() {
        let rec = TraceRecorder::new();
        let a = rec.now_ns();
        let b = rec.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn snapshot_reflects_counters_and_gauges() {
        let rec = TraceRecorder::new();
        rec.add("fault.injected", 3);
        rec.set_gauge("overhead.mean_fraction", 0.004);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("fault.injected"), 3);
        assert_eq!(snap.gauges.get("overhead.mean_fraction"), Some(&0.004));
    }
}

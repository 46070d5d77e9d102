//! Counters, gauges, and fixed-bucket latency histograms.

use std::collections::BTreeMap;

/// Fixed-bucket histogram with exact count/sum/max and
/// bucket-resolution percentile estimates.
///
/// A value `v` lands in the first bucket whose upper bound satisfies
/// `v <= bound`; values above every bound land in an implicit
/// overflow bucket. Percentiles are reported as the upper bound of
/// the bucket containing the requested rank (clamped to the observed
/// maximum), which makes them conservative: the true quantile is
/// never larger than the reported one.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    total: u64,
    sum: f64,
    max: f64,
}

impl Histogram {
    /// A histogram over ascending finite upper bounds. Bounds are
    /// sorted and deduplicated; non-finite bounds are dropped.
    pub fn new(bounds: &[f64]) -> Self {
        let mut bounds: Vec<f64> = bounds.iter().copied().filter(|b| b.is_finite()).collect();
        bounds.sort_by(f64::total_cmp);
        bounds.dedup();
        let buckets = bounds.len() + 1;
        Self {
            bounds,
            counts: vec![0; buckets],
            total: 0,
            sum: 0.0,
            max: 0.0,
        }
    }

    /// The default latency layout in microseconds: 1 µs resolution at
    /// the bottom, then roughly 1-2-5 steps up to the 200 ms
    /// (200 000 µs) decision budget.
    pub fn latency_us() -> Self {
        Self::new(&[
            1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1_000.0, 2_000.0, 5_000.0,
            10_000.0, 20_000.0, 50_000.0, 100_000.0, 200_000.0,
        ])
    }

    /// The prediction-error layout in percent: 1-2-5 steps from 0.1%
    /// (well under the paper's ~2.7% CPI claim) up to 100%, with
    /// anything beyond landing in the overflow bucket.
    pub fn error_pct() -> Self {
        Self::new(&[0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0])
    }

    /// Records one observation. Non-finite values are counted in the
    /// overflow bucket so they remain visible without poisoning `sum`.
    pub fn observe(&mut self, v: f64) {
        self.total += 1;
        if !v.is_finite() {
            if let Some(last) = self.counts.last_mut() {
                *last += 1;
            }
            return;
        }
        self.sum += v;
        if v > self.max {
            self.max = v;
        }
        let idx = self.bounds.partition_point(|b| *b < v);
        if let Some(slot) = self.counts.get_mut(idx) {
            *slot += 1;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of finite observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of finite observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Largest finite observation (0 when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Estimated `q`-quantile (`q` in `[0, 1]`): the upper bound of
    /// the bucket holding the rank-`ceil(q·n)` observation, clamped to
    /// the observed maximum. Returns 0 when empty.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (count, bound) in self.counts.iter().zip(self.bounds.iter()) {
            cum += count;
            if cum >= rank {
                return bound.min(self.max);
            }
        }
        // Rank falls in the overflow bucket: all we know is the max.
        self.max
    }

    /// Folds another histogram into this one. Identical bucket
    /// layouts merge exactly (bucket-wise count addition, exact
    /// `count`/`sum`/`max`); mismatched layouts fall back to
    /// re-observing each foreign bucket at its upper bound, which
    /// keeps counts exact and percentiles conservative.
    pub fn merge(&mut self, other: &Histogram) {
        if self.bounds == other.bounds {
            for (slot, add) in self.counts.iter_mut().zip(&other.counts) {
                *slot += add;
            }
            self.total += other.total;
            self.sum += other.sum;
            if other.max > self.max {
                self.max = other.max;
            }
            return;
        }
        for (bound, count) in other.buckets() {
            let v = if bound.is_finite() { bound } else { other.max };
            for _ in 0..count {
                self.observe(v);
            }
        }
    }

    /// Bucket `(upper_bound, count)` pairs, ending with the overflow
    /// bucket as `(f64::INFINITY, count)`.
    pub fn buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.bounds
            .iter()
            .copied()
            .chain(std::iter::once(f64::INFINITY))
            .zip(self.counts.iter().copied())
    }
}

/// Named counters, gauges, and histograms behind one registry.
///
/// Keys are plain strings; `BTreeMap` keeps every export and snapshot
/// deterministically ordered.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to a counter, creating it at zero first.
    pub fn add(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Current value of a counter (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets a gauge.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Current value of a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Records `v` into the named histogram, creating it with the
    /// [`Histogram::latency_us`] layout on first use.
    pub fn observe(&mut self, name: &str, v: f64) {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(Histogram::latency_us)
            .observe(v);
    }

    /// Records `v` into the named histogram, creating it with `make`
    /// on first use — for histograms whose natural bucket layout is
    /// not the latency one (e.g. prediction-error percentages).
    pub fn observe_with(&mut self, name: &str, v: f64, make: impl FnOnce() -> Histogram) {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(make)
            .observe(v);
    }

    /// The named histogram, if any value was ever observed.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// All gauges in name order.
    pub fn gauges(&self) -> &BTreeMap<String, f64> {
        &self.gauges
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> &BTreeMap<String, Histogram> {
        &self.histograms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_inclusive_upper_bounds() {
        let mut h = Histogram::new(&[10.0, 20.0]);
        h.observe(10.0); // lands in the 10-bucket (v <= bound)
        h.observe(10.1); // lands in the 20-bucket
        h.observe(20.0); // lands in the 20-bucket
        h.observe(20.5); // overflow
        let buckets: Vec<(f64, u64)> = h.buckets().collect();
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets[0], (10.0, 1));
        assert_eq!(buckets[1], (20.0, 2));
        assert_eq!(buckets[2].1, 1);
        assert!(buckets[2].0.is_infinite());
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), 20.5);
    }

    #[test]
    fn merge_is_exact_for_identical_layouts() {
        let mut a = Histogram::latency_us();
        a.observe(3.0);
        a.observe(150.0);
        let mut b = Histogram::latency_us();
        b.observe(3.0);
        b.observe(90_000.0);
        let sum_before = a.sum() + b.sum();
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.sum(), sum_before);
        assert_eq!(a.max(), 90_000.0);
        // Both 3.0 observations share a bucket.
        assert!(a.buckets().any(|(bound, n)| bound == 5.0 && n == 2));
    }

    #[test]
    fn merge_mismatched_layouts_keeps_counts() {
        let mut a = Histogram::new(&[10.0, 100.0]);
        a.observe(7.0);
        let mut b = Histogram::new(&[50.0]);
        b.observe(30.0);
        b.observe(600.0); // overflow in b
        a.merge(&b);
        assert_eq!(a.count(), 3);
        // Conservative: b's 30.0 re-observes at its 50.0 bound.
        assert!(a.percentile(0.99) >= 100.0);
    }

    #[test]
    fn percentiles_report_bucket_upper_bounds() {
        let mut h = Histogram::new(&[1.0, 2.0, 5.0, 10.0]);
        // 100 observations: 50× 0.5, 40× 1.5, 9× 4.0, 1× 9.0.
        for _ in 0..50 {
            h.observe(0.5);
        }
        for _ in 0..40 {
            h.observe(1.5);
        }
        for _ in 0..9 {
            h.observe(4.0);
        }
        h.observe(9.0);
        assert_eq!(h.percentile(0.50), 1.0); // rank 50 is in the ≤1 bucket
        assert_eq!(h.percentile(0.90), 2.0); // rank 90 is in the ≤2 bucket
        assert_eq!(h.percentile(0.99), 5.0); // rank 99 is in the ≤5 bucket
        assert_eq!(h.percentile(1.00), 9.0); // clamped to observed max
        assert_eq!(h.percentile(0.0), 1.0); // rank floor is 1
        assert_eq!(h.count(), 100);
    }

    #[test]
    fn percentile_is_clamped_to_observed_max() {
        let mut h = Histogram::new(&[1_000.0]);
        h.observe(3.0);
        h.observe(4.0);
        // Both land in the ≤1000 bucket, but the estimate must not
        // exceed anything actually seen.
        assert_eq!(h.percentile(0.5), 4.0);
    }

    #[test]
    fn overflow_bucket_percentile_falls_back_to_max() {
        let mut h = Histogram::new(&[1.0]);
        h.observe(50.0);
        h.observe(70.0);
        assert_eq!(h.percentile(0.99), 70.0);
    }

    #[test]
    fn empty_histogram_is_all_zeroes() {
        let h = Histogram::latency_us();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.percentile(0.5), 0.0);
    }

    #[test]
    fn non_finite_observations_go_to_overflow() {
        let mut h = Histogram::new(&[1.0]);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 0.0);
        let overflow = h.buckets().last().map(|(_, c)| c);
        assert_eq!(overflow, Some(2));
    }

    #[test]
    fn unsorted_bounds_are_normalized() {
        let mut h = Histogram::new(&[5.0, 1.0, 5.0, f64::NAN]);
        h.observe(0.5);
        h.observe(3.0);
        let bounds: Vec<f64> = h.buckets().map(|(b, _)| b).collect();
        assert_eq!(bounds[0], 1.0);
        assert_eq!(bounds[1], 5.0);
        assert_eq!(h.percentile(0.5), 1.0);
    }

    #[test]
    fn registry_counters_gauges_histograms() {
        let mut m = MetricsRegistry::new();
        m.add("fault.injected", 2);
        m.add("fault.injected", 3);
        m.set_gauge("overhead.fraction", 0.01);
        m.observe("stage.decide", 42.0);
        assert_eq!(m.counter("fault.injected"), 5);
        assert_eq!(m.counter("never"), 0);
        assert_eq!(m.gauge("overhead.fraction"), Some(0.01));
        assert_eq!(m.histogram("stage.decide").map(Histogram::count), Some(1));
        assert!(m.histogram("stage.apply").is_none());
        assert_eq!(m.counters().len(), 1);
        assert_eq!(m.gauges().len(), 1);
        assert_eq!(m.histograms().len(), 1);
    }
}

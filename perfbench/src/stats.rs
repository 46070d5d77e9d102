//! Raw-sample timing: a fixed-capacity sample buffer and exact
//! percentiles computed from the sorted samples.
//!
//! Every timing the benchmark reports comes from here, never from a
//! bucketed histogram, so a percentile is one of the measured values.

use std::time::{Duration, Instant};

/// Samples one series can hold. The buffer is allocated and touched
/// up front, so the harness's own resident memory is the same in every
/// run however many operations the run completes; samples past the
/// capacity are counted but not kept (see [`Samples::warn_if_full`]).
pub const SERIES_CAPACITY: usize = 1 << 21;

/// Durations of one kind of call, in nanoseconds.
#[derive(Debug, Clone)]
pub struct Samples {
    buf: Vec<u32>,
    len: usize,
    dropped: u64,
}

impl Samples {
    /// An empty series with room for `capacity` samples, every page
    /// of which is already resident.
    pub fn with_capacity(capacity: usize) -> Self {
        // A non-zero fill forces the pages in; a zeroed allocation
        // would stay virtual until first written.
        Self {
            buf: vec![u32::MAX; capacity],
            len: 0,
            dropped: 0,
        }
    }

    /// Records one duration (saturating at about 4.29 s).
    pub fn push(&mut self, d: Duration) {
        let ns = u32::try_from(d.as_nanos()).unwrap_or(u32::MAX);
        match self.buf.get_mut(self.len) {
            Some(slot) => {
                *slot = ns;
                self.len += 1;
            }
            None => self.dropped += 1,
        }
    }

    /// Times `f` and records its duration.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.push(start.elapsed());
        out
    }

    /// Samples kept.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Multiplies every sample kept from index `mark` on by `factor`
    /// (see [`crate::host`]), saturating like [`Samples::push`].
    pub fn scale_since(&mut self, mark: usize, factor: f64) {
        for ns in self.buf.iter_mut().take(self.len).skip(mark) {
            *ns = (f64::from(*ns) * factor).round().min(f64::from(u32::MAX)) as u32;
        }
    }

    /// Warns on standard error when `what` outran its buffer, so its
    /// percentiles cover only the start of the run.
    pub fn warn_if_full(&self, what: &str) {
        if self.dropped > 0 {
            eprintln!(
                "{what}: kept the first {} samples, dropped {}",
                self.len, self.dropped
            );
        }
    }

    /// The kept samples in microseconds, in the order they were taken.
    pub fn in_order_us(&self) -> Vec<f64> {
        self.buf[..self.len]
            .iter()
            .map(|&ns| f64::from(ns) / 1e3)
            .collect()
    }

    /// The kept samples in microseconds, sorted ascending.
    pub fn sorted_us(&self) -> Vec<f64> {
        let mut v = self.in_order_us();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The kept samples in seconds, sorted ascending.
    pub fn sorted_s(&self) -> Vec<f64> {
        self.sorted_us().iter().map(|us| us / 1e6).collect()
    }

    /// Sum of the kept samples, in seconds.
    pub fn total_s(&self) -> f64 {
        self.buf[..self.len]
            .iter()
            .map(|&ns| f64::from(ns) / 1e9)
            .sum()
    }
}

/// The `p`-th percentile (0 < p <= 100) of ascending `sorted` values
/// by the nearest-rank rule: the smallest value with at least `p`% of
/// the samples at or below it. `None` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    sorted.get(rank(p, sorted.len()) - 1).copied()
}

/// One-based nearest rank of the `p`-th percentile among `n > 0`
/// samples. The small slack keeps `p * n / 100` that is an integer in
/// exact arithmetic from rounding up past it.
fn rank(p: f64, n: usize) -> usize {
    let exact = p * n as f64 / 100.0;
    ((exact - exact * 1e-12).ceil() as usize).clamp(1, n)
}

/// Median of ascending `sorted` values (nearest rank).
pub fn median(sorted: &[f64]) -> Option<f64> {
    percentile(sorted, 50.0)
}

/// Median of unsorted values.
pub fn median_of(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    median(&v)
}

/// `(p, value)` for the higher of p99 and p90 that has at least ten
/// samples above its rank; below 100 samples neither does and the
/// median stands in. `None` for an empty slice.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    let p = [99.0, 90.0]
        .into_iter()
        .find(|&p| n > 0 && n - rank(p, n) >= 10)
        .unwrap_or(50.0);
    percentile(sorted, p).map(|v| (p, v))
}

/// Samples per window of [`windowed_tail`]: enough for a p99 with a
/// hundred samples above it.
pub const TAIL_WINDOW: usize = 10_000;

/// The tail of one or more series, each in the order it was taken:
/// every series is cut into consecutive windows of `window` samples, and
/// the result is the median over all full windows of each window's
/// [`tail`]. A burst of slow samples, such as a second in which the
/// host did not run the process, then moves it only if the bursts span
/// half the windows. Without a full window it is the [`tail`] of all
/// samples. Returns the percentile, the value and the number of windows
/// (0 for the fallback); `None` without samples.
pub fn windowed_tail(series: &[Vec<f64>], window: usize) -> Option<(f64, f64, usize)> {
    let mut tails = Vec::new();
    let mut p = 50.0;
    for chunk in series.iter().flat_map(|s| s.chunks_exact(window.max(1))) {
        let mut sorted = chunk.to_vec();
        sorted.sort_by(f64::total_cmp);
        if let Some((q, v)) = tail(&sorted) {
            p = q;
            tails.push(v);
        }
    }
    if let Some(v) = median_of(&tails) {
        return Some((p, v, tails.len()));
    }
    let mut all: Vec<f64> = series.concat();
    all.sort_by(f64::total_cmp);
    tail(&all).map(|(p, v)| (p, v, 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_on_known_inputs() {
        let v = one_to(100);
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.5), Some(1.0));
        let v = one_to(1000);
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        assert_eq!(percentile(&v, 99.9), Some(999.0));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0, 5.0]), Some(3.0));
        assert_eq!(median_of(&[5.0, 1.0, 3.0]), Some(3.0));
    }

    #[test]
    fn percentile_rejects_empty_and_out_of_range() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[1.0], 0.0), None);
        assert_eq!(percentile(&[1.0], 100.5), None);
        assert_eq!(percentile(&[1.0], f64::NAN), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail(&one_to(1000)), Some((99.0, 990.0)));
        assert_eq!(tail(&one_to(999)), Some((90.0, 900.0)));
        assert_eq!(tail(&one_to(100)), Some((90.0, 90.0)));
        assert_eq!(tail(&one_to(99)), Some((50.0, 50.0)));
        assert_eq!(tail(&one_to(4)), Some((50.0, 2.0)));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn windowed_tail_takes_the_median_window() {
        // Three windows of 1..=100 shifted by 0, 1000 and 2; p90 of each
        // is 90, 1090 and 92, so a burst in one window does not count.
        let series: Vec<f64> = [0.0, 1000.0, 2.0]
            .iter()
            .flat_map(|&shift| one_to(100).into_iter().map(move |v| v + shift))
            .collect();
        assert_eq!(
            windowed_tail(std::slice::from_ref(&series), 100),
            Some((90.0, 92.0, 3))
        );
        // Windows are cut per series and a partial window is left out:
        // the windows are 1..=100 and 1051..=1100 with 3..=52, whose p90
        // is 1090; the median of two is the lower.
        let (a, b) = series.split_at(150);
        assert_eq!(
            windowed_tail(&[a.to_vec(), b.to_vec()], 100),
            Some((90.0, 90.0, 2))
        );
        // No full window: the tail of all samples.
        assert_eq!(windowed_tail(&[one_to(99)], 100), Some((50.0, 50.0, 0)));
        assert_eq!(windowed_tail(&[], 100), None);
    }

    #[test]
    fn samples_are_kept_up_to_capacity() {
        let mut s = Samples::with_capacity(3);
        for us in [3u64, 1, 2, 4] {
            s.push(Duration::from_micros(us));
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.dropped, 1);
        assert_eq!(s.sorted_us(), vec![1.0, 2.0, 3.0]);
        assert!((s.total_s() - 6e-6).abs() < 1e-12);
        s.push(Duration::from_secs(10));
        assert_eq!(s.dropped, 2);
    }

    #[test]
    fn scaling_touches_only_the_window() {
        let mut s = Samples::with_capacity(4);
        for us in [1u64, 2, 3] {
            s.push(Duration::from_micros(us));
        }
        s.scale_since(1, 1.5);
        assert_eq!(s.sorted_us(), vec![1.0, 3.0, 4.5]);
        s.scale_since(2, 1e9);
        assert_eq!(s.sorted_us()[2], f64::from(u32::MAX) / 1e3);
    }

    #[test]
    fn long_durations_saturate() {
        let mut s = Samples::with_capacity(1);
        s.push(Duration::from_secs(5));
        assert_eq!(s.sorted_us(), vec![f64::from(u32::MAX) / 1e3]);
    }
}

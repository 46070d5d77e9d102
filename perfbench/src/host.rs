//! Host-speed calibration.
//!
//! The benchmark runs on hosts shared with other tenants. On a shared
//! 2-vCPU virtual machine, a neighbour's load slows every compute-bound
//! call of this process by up to 1.6x, in phases that last from a
//! fraction of a second to minutes. Such a slowdown is the host's, not
//! the program's, and no statistic over one run can remove a phase that
//! covers the whole run.
//!
//! So every measured phase is cut into short windows (an online episode,
//! a serve round, an experiments phase call, one set-up). After each
//! window a fixed reference kernel, this file's own code, is timed. Each
//! time measured in the window is multiplied by [`NOMINAL_US`] over the
//! median of the kernel's last [`RECENT`] readings, the one just after
//! the window included; the median keeps one reading slowed by the
//! scheduler from skewing a window, and phases last far longer than
//! [`RECENT`] windows. Times then
//! read as on a host where the kernel takes [`NOMINAL_US`], which is
//! about its time on an idle core of the reference host. A change to
//! the program moves them as it moves raw times; a neighbour's load
//! moves them only as far as it slows the program more or less than
//! the kernel. The kernel mixes what the measured calls do: small heap
//! allocations, floating-point maths with `powf` and `sqrt`, data-
//! dependent branches and scattered reads and writes in a 64 KiB table.
//! The raw kernel time is reported as `host.probe_us_p50`.

use crate::stats::Samples;
use std::hint::black_box;
use std::time::Instant;

/// Reference kernel time, in microseconds, that every scaled time is
/// expressed against.
pub const NOMINAL_US: f64 = 20.0;

/// Kernel passes per reading; the reading is their median, so one pass
/// preempted by the scheduler does not skew it.
const PASSES: usize = 3;

/// Readings whose median scales a window.
const RECENT: usize = 5;

/// Readings a probe keeps for `host.probe_us_p50`.
const READINGS: usize = 1 << 16;

/// Entries of the kernel's scratch table (64 KiB of `f64`).
const TABLE: usize = 8192;

/// Times the reference kernel between windows of measured work.
#[derive(Debug)]
pub struct Probe {
    table: Vec<f64>,
    passes: u64,
    recent: [f64; RECENT],
    taken: usize,
    readings: Samples,
}

impl Default for Probe {
    fn default() -> Self {
        Self::new()
    }
}

impl Probe {
    /// A probe with its first reading taken, so the first window has a
    /// reading before it.
    pub fn new() -> Self {
        let mut probe = Self {
            table: vec![1.0; TABLE],
            passes: 0,
            recent: [0.0; RECENT],
            taken: 0,
            readings: Samples::with_capacity(READINGS),
        };
        probe.read();
        probe
    }

    /// Ends a window: takes a reading and returns the factor that
    /// scales the window's times to the nominal host speed.
    pub fn close_window(&mut self) -> f64 {
        self.read();
        let mut recent = self.recent;
        let recent = &mut recent[..self.taken.min(RECENT)];
        recent.sort_by(f64::total_cmp);
        NOMINAL_US / recent[recent.len() / 2]
    }

    /// The raw readings, in microseconds, sorted ascending.
    pub fn readings_us(&self) -> Vec<f64> {
        self.readings.sorted_us()
    }

    /// Takes a reading: the median kernel time of [`PASSES`] passes, in
    /// microseconds.
    fn read(&mut self) {
        let mut us = [0.0; PASSES];
        for slot in &mut us {
            let start = Instant::now();
            black_box(kernel(&mut self.table, self.passes));
            let elapsed = start.elapsed();
            *slot = elapsed.as_secs_f64() * 1e6;
            self.passes += 1;
        }
        us.sort_by(f64::total_cmp);
        let median = us[PASSES / 2];
        self.readings
            .push(std::time::Duration::from_secs_f64(median / 1e6));
        self.recent[self.taken % RECENT] = median.max(f64::MIN_POSITIVE);
        self.taken += 1;
    }
}

/// Prints the raw kernel times of a run, ascending `readings_us`, on
/// standard error.
pub fn report(readings_us: &[f64]) {
    if let Some(p50) = crate::stats::median(readings_us) {
        eprintln!(
            "host: reference kernel p50 {p50:.2} us over {} readings; \
             times are scaled to {NOMINAL_US} us",
            readings_us.len()
        );
    }
}

/// The reference kernel: a fixed amount of mixed work, about
/// [`NOMINAL_US`] on an idle core of the reference host. Its result
/// depends on `pass` so it cannot be hoisted out of a loop.
fn kernel(table: &mut [f64], pass: u64) -> f64 {
    let mut acc = 0.0f64;
    let mut x = pass.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for round in 0..20u32 {
        let mut v: Vec<f64> = Vec::with_capacity(48);
        for i in 0..48u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let f = (x >> 11) as f64 / (1u64 << 53) as f64;
            v.push(f.powf(1.3) * f64::from(i + 1));
        }
        for (i, &vi) in v.iter().enumerate() {
            let j = (x as usize).wrapping_add(i * 31) % table.len();
            table[j] = table[j] * 0.5 + vi;
            if vi > 10.0 {
                acc += vi.sqrt();
            } else {
                acc -= vi * 0.25;
            }
        }
        acc += v.iter().sum::<f64>() / f64::from(round + 1);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_are_positive_and_readings_kept() {
        let mut probe = Probe::new();
        for _ in 0..7 {
            let f = probe.close_window();
            assert!(f.is_finite() && f > 0.0, "{f}");
        }
        let readings = probe.readings_us();
        assert_eq!(readings.len(), 8);
        assert!(readings.iter().all(|&us| us > 0.0));
    }

    #[test]
    fn the_kernel_is_deterministic() {
        let (mut a, mut b) = (vec![1.0; TABLE], vec![1.0; TABLE]);
        assert_eq!(kernel(&mut a, 7).to_bits(), kernel(&mut b, 7).to_bits());
        assert_eq!(a, b);
    }
}

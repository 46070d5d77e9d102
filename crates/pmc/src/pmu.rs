//! A six-slot, time-multiplexed per-core PMU.
//!
//! The FX-8320 has six programmable performance counters per core but
//! PPEP needs twelve events, so the paper time-multiplexes the
//! counters (§IV-B1). This PMU reproduces that mechanism: the twelve
//! Table I events are split into two groups of six; on every 20 ms
//! sub-tick the active group's counters accumulate the true event
//! counts while the inactive group sees nothing; at interval end each
//! event's count is extrapolated by the inverse of its duty cycle
//! (×2 for a two-group schedule).
//!
//! This is exactly the error mechanism the paper blames for its
//! worst-case outliers: a workload whose phase flips between sub-ticks
//! is seen by each group only half the time, and the extrapolation
//! assumes the unseen half looked the same.

use crate::counter::COUNTER_MASK;
use crate::counts::{EventCounts, PerEvent};
use crate::events::EventId;
use crate::msr::{encode_ctl, MsrDevice, SLOT_COUNT};
use ppep_types::{Error, Result, Seconds};

/// Multiplexing group membership: which events share counter slots.
///
/// Group A holds E1–E6, group B holds E7–E12, mirroring a schedule
/// that keeps each group's events coherent within a sub-tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MuxGroup {
    /// Events E1–E6.
    A,
    /// Events E7–E12.
    B,
}

impl MuxGroup {
    /// The events in this group, in slot order.
    pub const fn events(self) -> [EventId; SLOT_COUNT] {
        match self {
            MuxGroup::A => [
                EventId::RetiredUops,
                EventId::FpuPipeAssignment,
                EventId::InstructionCacheFetches,
                EventId::DataCacheAccesses,
                EventId::RequestsToL2,
                EventId::RetiredBranches,
            ],
            MuxGroup::B => [
                EventId::RetiredMispredictedBranches,
                EventId::L2CacheMisses,
                EventId::DispatchStalls,
                EventId::CpuClocksNotHalted,
                EventId::RetiredInstructions,
                EventId::MabWaitCycles,
            ],
        }
    }

    /// The other group.
    #[must_use]
    pub fn toggled(self) -> Self {
        match self {
            MuxGroup::A => MuxGroup::B,
            MuxGroup::B => MuxGroup::A,
        }
    }

    /// The `PERF_CTL` words that program this group's events, enabled,
    /// in slot order; encoded once, at compile time.
    fn ctl_words(self) -> [u64; SLOT_COUNT] {
        const fn encode(events: [EventId; SLOT_COUNT]) -> [u64; SLOT_COUNT] {
            let [e0, e1, e2, e3, e4, e5] = events;
            [
                encode_ctl(e0.code(), true),
                encode_ctl(e1.code(), true),
                encode_ctl(e2.code(), true),
                encode_ctl(e3.code(), true),
                encode_ctl(e4.code(), true),
                encode_ctl(e5.code(), true),
            ]
        }
        const A: [u64; SLOT_COUNT] = encode(MuxGroup::A.events());
        const B: [u64; SLOT_COUNT] = encode(MuxGroup::B.events());
        match self {
            MuxGroup::A => A,
            MuxGroup::B => B,
        }
    }
}

/// Both multiplexing groups, in `Pmu::group_time` order.
const GROUPS: [MuxGroup; 2] = [MuxGroup::A, MuxGroup::B];

/// 2⁵²: from here up every `f64` is an integer, and below it every
/// non-negative `f64` plus 2⁵² lands in the binade whose unit in the
/// last place is exactly 1.
const TWO_52: f64 = 4_503_599_627_370_496.0;

/// `x.round() as u64` for a count already validated as finite and
/// non-negative (`-0.0` included), without the libm `round` call below
/// 2⁵².
///
/// For `0 ≤ x < 2⁵²`, `y = x + 2⁵²` rounds `x` to the nearest integer,
/// ties to even, and holds that integer in its low mantissa bits (`y`
/// reaches 2⁵³ only when `x` rounds up to 2⁵², where the bit pattern
/// difference is 2⁵² too). `y - 2⁵²` and `x - (y - 2⁵²)` are exact, so
/// a difference of exactly ½ marks the one case where ties-to-even
/// went down and `f64::round`, ties away from zero, goes up. From 2⁵²
/// up, `x` is integral and `round` returns it unchanged.
#[inline]
fn round_count(x: f64) -> u64 {
    if x < TWO_52 {
        let y = x + TWO_52;
        let even = y.to_bits() - TWO_52.to_bits();
        even + u64::from(x - (y - TWO_52) == 0.5)
    } else {
        x.round() as u64
    }
}

/// A per-core PMU multiplexing twelve events over six hardware slots.
///
/// ```
/// use ppep_pmc::{EventCounts, Pmu};
/// use ppep_pmc::events::ALL_EVENTS;
/// use ppep_types::Seconds;
///
/// # fn main() -> ppep_types::Result<()> {
/// let mut pmu = Pmu::new();
/// let mut counts = EventCounts::zero();
/// for e in ALL_EVENTS {
///     counts.set(e, 1000.0);
/// }
/// for _ in 0..10 {
///     pmu.tick(&counts, Seconds::new(0.02))?;
/// }
/// // Steady rates reconstruct exactly despite ×2 multiplexing.
/// let interval = pmu.drain_interval()?;
/// assert!((interval.get(ppep_pmc::EventId::RetiredUops) - 10_000.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Pmu {
    device: MsrDevice,
    active_group: MuxGroup,
    /// Raw counts accumulated per event since the last drain.
    accumulated: PerEvent<u64>,
    /// Seconds each group was live since the last drain, in
    /// [`GROUPS`] order. Every event of a group accumulates the
    /// same `dt` sequence, so one sum per group is each event's active
    /// time to the bit.
    group_time: [f64; 2],
    /// Total wall time since the last drain.
    total_time: f64,
    /// Counter values at the start of the current programming, used to
    /// compute deltas through the MSR interface.
    slot_baseline: [u64; SLOT_COUNT],
    multiplexing: bool,
}

impl Pmu {
    /// A PMU with two-group multiplexing enabled (the paper's setup).
    pub fn new() -> Self {
        let mut pmu = Self {
            device: MsrDevice::new(),
            active_group: MuxGroup::A,
            accumulated: PerEvent::splat(0),
            group_time: [0.0; 2],
            total_time: 0.0,
            slot_baseline: [0; SLOT_COUNT],
            multiplexing: true,
        };
        pmu.program_active_group();
        pmu
    }

    /// A PMU that magically observes all twelve events continuously.
    ///
    /// Real hardware cannot do this; it exists so tests and ablation
    /// experiments can isolate the error contributed by multiplexing.
    pub fn new_ideal() -> Self {
        let mut pmu = Self::new();
        pmu.multiplexing = false;
        pmu
    }

    /// Whether this PMU time-multiplexes (true for the realistic PMU).
    pub fn is_multiplexing(&self) -> bool {
        self.multiplexing
    }

    /// The group currently occupying the hardware slots.
    pub fn active_group(&self) -> MuxGroup {
        self.active_group
    }

    /// Direct access to the underlying MSR device (read-only).
    pub fn msr(&self) -> &MsrDevice {
        &self.device
    }

    /// Mutable access to the underlying MSR device, e.g. to arm fault
    /// injection ([`MsrDevice::inject_read_failures`]) or preload
    /// counter values.
    pub fn msr_mut(&mut self) -> &mut MsrDevice {
        &mut self.device
    }

    /// Writes `raw` (masked to 48 bits) into every hardware counter
    /// and re-syncs the sampling baselines, so subsequent deltas start
    /// from the preloaded value. Fault injection uses this to place
    /// counters just below the 48-bit wrap point.
    pub fn preload_counters(&mut self, raw: u64) {
        self.slot_baseline = self.device.preload_all(raw);
    }

    /// Discards any partially accumulated interval and re-syncs the
    /// counter baselines. After a mid-interval fault (failed read,
    /// missed deadline) the accumulators cover an unknown span; a
    /// supervisor calls this before resuming sampling.
    pub fn reset_interval(&mut self) {
        self.accumulated = PerEvent::splat(0);
        self.group_time = [0.0; 2];
        self.total_time = 0.0;
        self.program_active_group();
    }

    fn program_active_group(&mut self) {
        self.device.program_all(self.active_group.ctl_words());
        // Backstage peek: baseline re-sync is simulator bookkeeping,
        // not a modelled msr-tools read, so injected read failures
        // must not corrupt it.
        self.slot_baseline = self.device.peek_all();
    }

    /// Feeds one sub-tick of ground-truth event counts into the PMU.
    ///
    /// Only events whose group currently owns the hardware slots
    /// accumulate (all events when multiplexing is disabled). Each
    /// count is rounded half away from zero to whole events. After
    /// accounting, the active group toggles, emulating the driver
    /// reprogramming the counters every sample.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] for non-positive `dt` or
    /// non-finite/negative counts, before anything changes. Returns
    /// [`Error::MsrReadFailed`] when an injected counter-read failure
    /// fires; the partial interval is then poisoned and
    /// [`Pmu::reset_interval`] must run before sampling resumes.
    pub fn tick(&mut self, true_counts: &EventCounts, dt: Seconds) -> Result<()> {
        let dt = dt.as_secs();
        if dt <= 0.0 {
            return Err(Error::InvalidInput("PMU tick needs positive dt".into()));
        }
        if !true_counts.is_valid_counts() {
            return Err(Error::InvalidInput(
                "PMU tick counts must be finite and non-negative".into(),
            ));
        }
        self.total_time += dt;

        if self.multiplexing {
            // Only the active group's slots count this sub-tick.
            let group = self.active_group;
            let events = group.events();
            let now = self
                .device
                .count_and_read_all(events.map(|e| round_count(true_counts[e])))?;
            for ((event, now), baseline) in events.into_iter().zip(now).zip(&mut self.slot_baseline)
            {
                // Counters are 48 bits wide: a mid-interval wrap makes
                // `now < baseline`, and the delta must be taken modulo
                // 2⁴⁸ (a plain u64 subtraction would inflate it by
                // 2⁶⁴ − 2⁴⁸).
                self.accumulated[event] += now.wrapping_sub(*baseline) & COUNTER_MASK;
                // The counters are not touched again before the next
                // tick, so the value just read is the next baseline.
                *baseline = now;
            }
            let [time_a, time_b] = &mut self.group_time;
            *match group {
                MuxGroup::A => time_a,
                MuxGroup::B => time_b,
            } += dt;
            self.active_group = group.toggled();
            self.device.program_all(self.active_group.ctl_words());
        } else {
            let counts = true_counts.as_array();
            for (acc, &x) in self.accumulated.as_mut_array().iter_mut().zip(counts) {
                *acc += round_count(x);
            }
            for t in &mut self.group_time {
                *t += dt;
            }
        }
        Ok(())
    }

    /// Produces the extrapolated per-event counts for the elapsed
    /// period and resets the accumulators for the next interval.
    ///
    /// Each event's raw count is scaled by `total_time / active_time`
    /// — the standard multiplexing extrapolation, one division per
    /// group. Events whose group never ran (possible for a 1-tick
    /// interval) report zero.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Device`] when no time has elapsed since the
    /// last drain.
    pub fn drain_interval(&mut self) -> Result<EventCounts> {
        if self.total_time <= 0.0 {
            return Err(Error::Device(
                "drain_interval called with no elapsed time".into(),
            ));
        }
        let mut out = EventCounts::zero();
        for (group, &active) in GROUPS.iter().zip(&self.group_time) {
            if active > 0.0 {
                let scale = self.total_time / active;
                for event in group.events() {
                    out[event] = self.accumulated[event] as f64 * scale;
                }
            }
        }
        self.accumulated = PerEvent::splat(0);
        self.group_time = [0.0; 2];
        self.total_time = 0.0;
        Ok(out)
    }
}

impl Default for Pmu {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{ALL_EVENTS, EVENT_COUNT};

    fn steady_counts(per_tick: f64) -> EventCounts {
        let mut c = EventCounts::zero();
        for e in ALL_EVENTS {
            c.set(e, per_tick);
        }
        c
    }

    #[test]
    fn round_count_is_libm_round() {
        let mut values = vec![
            0.0,
            -0.0,
            0.49999999999999994,
            0.5,
            0.5000000000000001,
            1.5,
            2.5,
            TWO_52 - 1.5,
            TWO_52 - 0.5,
            TWO_52 - 0.25,
            TWO_52,
            TWO_52 + 1.0,
            2.0 * TWO_52 + 2.0,
            1.0e19,
        ];
        // Every quarter and a nudge either side, across several binades.
        for k in 0..4096_u32 {
            for scale in [1.0, 1.0e3, 1.0e9, 1.0e15] {
                let x = f64::from(k) * 0.25 * scale;
                values.extend([x, x.next_down().max(0.0), x.next_up()]);
            }
        }
        for x in values {
            assert_eq!(round_count(x), x.round() as u64, "round({x:e})");
        }
    }

    #[test]
    fn groups_partition_the_events() {
        let mut all: Vec<EventId> = MuxGroup::A.events().into_iter().collect();
        all.extend(MuxGroup::B.events());
        all.sort();
        all.dedup();
        assert_eq!(all.len(), EVENT_COUNT);
        assert_eq!(MuxGroup::A.toggled(), MuxGroup::B);
        assert_eq!(MuxGroup::B.toggled(), MuxGroup::A);
    }

    #[test]
    fn steady_workload_extrapolates_exactly() {
        // With constant rates, ×2 extrapolation reconstructs the truth.
        let mut pmu = Pmu::new();
        let dt = Seconds::new(0.020);
        let counts = steady_counts(1000.0);
        for _ in 0..10 {
            pmu.tick(&counts, dt).unwrap();
        }
        let est = pmu.drain_interval().unwrap();
        for e in ALL_EVENTS {
            assert!(
                (est.get(e) - 10_000.0).abs() < 1e-9,
                "{e}: {} != 10000",
                est.get(e)
            );
        }
    }

    #[test]
    fn alternating_phases_produce_multiplexing_error() {
        // Phase flips in lockstep with the mux schedule: group A only
        // ever sees the high phase. Extrapolation then overestimates.
        let mut pmu = Pmu::new();
        let dt = Seconds::new(0.020);
        for i in 0..10 {
            let c = if i % 2 == 0 {
                steady_counts(2000.0) // group A active
            } else {
                steady_counts(0.0) // group B active
            };
            pmu.tick(&c, dt).unwrap();
        }
        let est = pmu.drain_interval().unwrap();
        // True per-interval count is 5*2000 = 10_000. Group A events
        // saw all of it and double it to 20_000; group B events saw none.
        let a_event = MuxGroup::A.events()[0];
        let b_event = MuxGroup::B.events()[0];
        assert!((est.get(a_event) - 20_000.0).abs() < 1e-9);
        assert_eq!(est.get(b_event), 0.0);
    }

    #[test]
    fn ideal_pmu_sees_everything() {
        let mut pmu = Pmu::new_ideal();
        assert!(!pmu.is_multiplexing());
        let dt = Seconds::new(0.020);
        for i in 0..10 {
            let c = if i % 2 == 0 {
                steady_counts(2000.0)
            } else {
                steady_counts(0.0)
            };
            pmu.tick(&c, dt).unwrap();
        }
        let est = pmu.drain_interval().unwrap();
        for e in ALL_EVENTS {
            assert!((est.get(e) - 10_000.0).abs() < 1e-9);
        }
    }

    #[test]
    fn drain_resets_state() {
        let mut pmu = Pmu::new();
        let dt = Seconds::new(0.020);
        pmu.tick(&steady_counts(100.0), dt).unwrap();
        pmu.tick(&steady_counts(100.0), dt).unwrap();
        let _ = pmu.drain_interval().unwrap();
        assert!(pmu.drain_interval().is_err());
        pmu.tick(&steady_counts(50.0), dt).unwrap();
        pmu.tick(&steady_counts(50.0), dt).unwrap();
        let est = pmu.drain_interval().unwrap();
        // Two ticks, each group live one: raw 50 × extrapolation 2 = 100.
        assert!((est.get(EventId::RetiredUops) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn tick_validates_inputs() {
        let mut pmu = Pmu::new();
        assert!(pmu.tick(&steady_counts(1.0), Seconds::new(0.0)).is_err());
        let mut bad = steady_counts(1.0);
        bad.set(EventId::RetiredUops, f64::NAN);
        assert!(pmu.tick(&bad, Seconds::new(0.02)).is_err());
        let mut neg = steady_counts(1.0);
        neg.set(EventId::RetiredUops, -5.0);
        assert!(pmu.tick(&neg, Seconds::new(0.02)).is_err());
    }

    #[test]
    fn counter_wrap_mid_interval_extrapolates_correctly() {
        // Preload every counter 300 events below the 48-bit wrap
        // point: the first sub-ticks wrap the counters, and the
        // masked delta logic must still reconstruct the steady rate.
        let mut pmu = Pmu::new();
        pmu.preload_counters(COUNTER_MASK - 300);
        let dt = Seconds::new(0.020);
        let counts = steady_counts(1000.0);
        for _ in 0..10 {
            pmu.tick(&counts, dt).unwrap();
        }
        let est = pmu.drain_interval().unwrap();
        for e in ALL_EVENTS {
            assert!(
                (est.get(e) - 10_000.0).abs() < 1e-9,
                "{e} must survive the 48-bit wrap: {}",
                est.get(e)
            );
        }
    }

    #[test]
    fn counter_wrap_on_ideal_pmu_is_a_no_op() {
        // The ideal PMU bypasses the MSR path entirely; preloading
        // must not disturb it.
        let mut pmu = Pmu::new_ideal();
        pmu.preload_counters(COUNTER_MASK - 5);
        let dt = Seconds::new(0.020);
        for _ in 0..10 {
            pmu.tick(&steady_counts(1000.0), dt).unwrap();
        }
        let est = pmu.drain_interval().unwrap();
        assert!((est.get(EventId::RetiredUops) - 10_000.0).abs() < 1e-9);
    }

    #[test]
    fn injected_read_failure_surfaces_and_reset_recovers() {
        let mut pmu = Pmu::new();
        let dt = Seconds::new(0.020);
        pmu.tick(&steady_counts(1000.0), dt).unwrap();
        pmu.msr_mut().inject_read_failures(1);
        let err = pmu.tick(&steady_counts(1000.0), dt).unwrap_err();
        assert!(matches!(err, Error::MsrReadFailed { .. }));
        assert!(err.is_transient());
        // The partial interval is poisoned; reset and run a clean one.
        pmu.reset_interval();
        for _ in 0..10 {
            pmu.tick(&steady_counts(500.0), dt).unwrap();
        }
        let est = pmu.drain_interval().unwrap();
        for e in ALL_EVENTS {
            assert!(
                (est.get(e) - 5_000.0).abs() < 1e-9,
                "{e} after recovery: {}",
                est.get(e)
            );
        }
    }

    #[test]
    fn msr_device_reflects_programming() {
        let pmu = Pmu::new();
        // Slot 0 of group A must be programmed to Retired UOP.
        let (code, enabled) = pmu.msr().slot_config(0).unwrap();
        assert_eq!(code, EventId::RetiredUops.code());
        assert!(enabled);
    }

    #[test]
    fn active_group_toggles_every_tick() {
        let mut pmu = Pmu::new();
        assert_eq!(pmu.active_group(), MuxGroup::A);
        pmu.tick(&steady_counts(1.0), Seconds::new(0.02)).unwrap();
        assert_eq!(pmu.active_group(), MuxGroup::B);
        pmu.tick(&steady_counts(1.0), Seconds::new(0.02)).unwrap();
        assert_eq!(pmu.active_group(), MuxGroup::A);
    }
}

//! The PMU against a reference model of its arithmetic.
//!
//! [`ReferencePmu`] is the straightforward form of `Pmu::tick` and
//! `Pmu::drain_interval`: libm `round` per count, one active time per
//! event, and each slot driven through the public register calls
//! `MsrDevice::count_events` then `MsrDevice::read_slot`. `Pmu` fuses
//! and shares that work; these tests hold it to the same results bit
//! for bit, to the same errors string for string, and to the same
//! register state after every operation.

use ppep_pmc::counter::COUNTER_MASK;
use ppep_pmc::events::{ALL_EVENTS, EVENT_COUNT};
use ppep_pmc::msr::{MsrDevice, PERF_CTL_BASE, PERF_CTR_BASE, SLOT_COUNT};
use ppep_pmc::pmu::MuxGroup;
use ppep_pmc::{EventCounts, Pmu};
use ppep_types::{Error, Result, Seconds};
use proptest::prelude::*;

/// 2⁵²: from here up every `f64` is an integer.
const TWO_52: f64 = 4_503_599_627_370_496.0;

struct ReferencePmu {
    device: MsrDevice,
    active_group: MuxGroup,
    accumulated: [u64; EVENT_COUNT],
    active_time: [f64; EVENT_COUNT],
    total_time: f64,
    slot_baseline: [u64; SLOT_COUNT],
    multiplexing: bool,
}

impl ReferencePmu {
    fn new(multiplexing: bool) -> Self {
        let mut pmu = Self {
            device: MsrDevice::new(),
            active_group: MuxGroup::A,
            accumulated: [0; EVENT_COUNT],
            active_time: [0.0; EVENT_COUNT],
            total_time: 0.0,
            slot_baseline: [0; SLOT_COUNT],
            multiplexing,
        };
        pmu.program_active_group();
        pmu
    }

    fn program_active_group(&mut self) {
        for (slot, event) in self.active_group.events().into_iter().enumerate() {
            self.device.program_slot(slot, event.code(), true).unwrap();
            self.slot_baseline[slot] = self.device.peek_slot(slot).unwrap();
        }
    }

    fn preload_counters(&mut self, raw: u64) {
        for slot in 0..SLOT_COUNT {
            self.device
                .wrmsr(PERF_CTR_BASE + 2 * slot as u32, raw)
                .unwrap();
            self.slot_baseline[slot] = self.device.peek_slot(slot).unwrap();
        }
    }

    fn reset_interval(&mut self) {
        self.accumulated = [0; EVENT_COUNT];
        self.active_time = [0.0; EVENT_COUNT];
        self.total_time = 0.0;
        self.program_active_group();
    }

    fn tick(&mut self, true_counts: &EventCounts, dt: Seconds) -> Result<()> {
        if dt.as_secs() <= 0.0 {
            return Err(Error::InvalidInput("PMU tick needs positive dt".into()));
        }
        if !true_counts.is_finite() || !true_counts.is_non_negative() {
            return Err(Error::InvalidInput(
                "PMU tick counts must be finite and non-negative".into(),
            ));
        }
        self.total_time += dt.as_secs();
        if self.multiplexing {
            for (slot, event) in self.active_group.events().into_iter().enumerate() {
                let n = true_counts.get(event).round().max(0.0) as u64;
                self.device.count_events(slot, n)?;
                let now = self.device.read_slot(slot)?;
                let delta = now.wrapping_sub(self.slot_baseline[slot]) & COUNTER_MASK;
                self.slot_baseline[slot] = now;
                self.accumulated[event.index()] += delta;
                self.active_time[event.index()] += dt.as_secs();
            }
            self.active_group = self.active_group.toggled();
            self.program_active_group();
        } else {
            for event in ALL_EVENTS {
                let n = true_counts.get(event).round().max(0.0) as u64;
                self.accumulated[event.index()] += n;
                self.active_time[event.index()] += dt.as_secs();
            }
        }
        Ok(())
    }

    fn drain_interval(&mut self) -> Result<EventCounts> {
        if self.total_time <= 0.0 {
            return Err(Error::Device(
                "drain_interval called with no elapsed time".into(),
            ));
        }
        let mut out = EventCounts::zero();
        for event in ALL_EVENTS {
            let i = event.index();
            let estimate = if self.active_time[i] > 0.0 {
                self.accumulated[i] as f64 * (self.total_time / self.active_time[i])
            } else {
                0.0
            };
            out.set(event, estimate);
        }
        self.accumulated = [0; EVENT_COUNT];
        self.active_time = [0.0; EVENT_COUNT];
        self.total_time = 0.0;
        Ok(out)
    }
}

/// Everything the registers expose: six CTL words, six counters, and
/// the armed read failures.
fn registers(dev: &MsrDevice) -> ([u64; SLOT_COUNT], [u64; SLOT_COUNT], u32) {
    let mut ctl = [0; SLOT_COUNT];
    let mut ctr = [0; SLOT_COUNT];
    for slot in 0..SLOT_COUNT {
        ctl[slot] = dev.rdmsr(PERF_CTL_BASE + 2 * slot as u32).unwrap();
        ctr[slot] = dev.peek_slot(slot).unwrap();
    }
    (ctl, ctr, dev.pending_read_failures())
}

fn same_result<T>(got: Result<T>, want: Result<T>, same: impl Fn(&T, &T) -> bool) -> bool {
    match (&got, &want) {
        (Ok(a), Ok(b)) => same(a, b),
        (Err(a), Err(b)) => format!("{a:?}") == format!("{b:?}") && a.to_string() == b.to_string(),
        (Ok(_), Err(_)) | (Err(_), Ok(_)) => false,
    }
}

fn same_bits(a: &EventCounts, b: &EventCounts) -> bool {
    a.as_array()
        .iter()
        .zip(b.as_array())
        .all(|(x, y)| x.to_bits() == y.to_bits())
}

#[derive(Debug, Clone)]
enum Op {
    Tick([f64; EVENT_COUNT], f64),
    Drain,
    Preload(u64),
    ArmReadFailures(u32),
    Reset,
}

/// Drives both PMUs through `ops`, asserting identical outcomes and
/// registers after every step. A failed counter read poisons the
/// partial interval, so both are reset after one, as every caller of
/// `Pmu::tick` does.
fn check(multiplexing: bool, ops: &[Op]) -> std::result::Result<(), String> {
    let mut pmu = if multiplexing {
        Pmu::new()
    } else {
        Pmu::new_ideal()
    };
    let mut reference = ReferencePmu::new(multiplexing);
    for (step, op) in ops.iter().enumerate() {
        match op {
            Op::Tick(values, dt) => {
                let counts = EventCounts::from_array(*values);
                let dt = Seconds::new(*dt);
                let got = pmu.tick(&counts, dt);
                let want = reference.tick(&counts, dt);
                let read_failed = matches!(want, Err(Error::MsrReadFailed { .. }));
                prop_assert!(
                    same_result(got, want, |_, _| true),
                    "step {step}: tick outcomes differ"
                );
                if read_failed {
                    pmu.reset_interval();
                    reference.reset_interval();
                }
            }
            Op::Drain => {
                let got = pmu.drain_interval();
                let want = reference.drain_interval();
                prop_assert!(
                    same_result(got.clone(), want.clone(), same_bits),
                    "step {step}: drained {got:?}, reference {want:?}"
                );
            }
            Op::Preload(raw) => {
                pmu.preload_counters(*raw);
                reference.preload_counters(*raw);
            }
            Op::ArmReadFailures(n) => {
                pmu.msr_mut().inject_read_failures(*n);
                reference.device.inject_read_failures(*n);
            }
            Op::Reset => {
                pmu.reset_interval();
                reference.reset_interval();
            }
        }
        prop_assert_eq!(
            registers(pmu.msr()),
            registers(&reference.device),
            "step {}: registers differ",
            step
        );
        prop_assert_eq!(pmu.active_group(), reference.active_group);
    }
    // Whatever is left in the accumulators drains identically too.
    let got = pmu.drain_interval();
    let want = reference.drain_interval();
    prop_assert!(same_result(got, want, same_bits), "final drain differs");
    Ok(())
}

/// Decodes a generated `u64` into test inputs (splitmix64), so each
/// operation of a case is one word proptest can print.
struct Bits(u64);

impl Bits {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// One sub-tick count, with the rounding edge cases weighted up.
    fn count(&mut self) -> f64 {
        match self.below(10) {
            0..=3 => self.unit() * 1.0e7,
            4 | 5 => self.below(1 << 40) as f64 + 0.5,
            6 => self.below(1 << 52) as f64,
            7 => TWO_52 - self.below(1 << 20) as f64 - 0.5,
            8 => [0.0, -0.0, 0.5, 0.49999999999999994][self.below(4) as usize],
            // At and above 2⁵², below 2⁵⁶: forty ticks of the ideal PMU
            // cannot overflow its u64 accumulators.
            _ => TWO_52 * (1.0 + 15.0 * self.unit()),
        }
    }

    /// A value `tick` must reject.
    fn invalid_count(&mut self) -> f64 {
        match self.below(6) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -1.0,
            4 => -f64::MIN_POSITIVE,
            _ => -1.0e9 * self.unit() - 1.0e-9,
        }
    }

    fn dt(&mut self) -> f64 {
        match self.below(23) {
            0..=19 => 0.02,
            20 | 21 => 1.0e-6 + self.unit(),
            _ => [0.0, -0.02, -0.0][self.below(3) as usize],
        }
    }

    fn op(&mut self) -> Op {
        match self.below(51) {
            0..=39 => {
                let mut values = [0.0; EVENT_COUNT];
                for v in &mut values {
                    *v = self.count();
                }
                if self.below(20) == 0 {
                    values[self.below(EVENT_COUNT as u64) as usize] = self.invalid_count();
                }
                Op::Tick(values, self.dt())
            }
            40..=45 => Op::Drain,
            46 | 47 => Op::Preload(if self.below(2) == 0 {
                COUNTER_MASK - self.below(5_000)
            } else {
                self.next()
            }),
            48 | 49 => Op::ArmReadFailures(1 + self.below(3) as u32),
            _ => Op::Reset,
        }
    }
}

fn decode(words: &[u64]) -> Vec<Op> {
    words.iter().map(|&w| Bits(w).op()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn multiplexed_pmu_matches_the_reference(words in prop::collection::vec(any::<u64>(), 1..40)) {
        check(true, &decode(&words))?;
    }

    #[test]
    fn ideal_pmu_matches_the_reference(words in prop::collection::vec(any::<u64>(), 1..40)) {
        check(false, &decode(&words))?;
    }
}

#[test]
fn rounding_edge_cases_match_libm_round() {
    let edges = [
        0.0,
        -0.0,
        0.49999999999999994,
        0.5,
        1.5,
        2.5,
        1.0e15 + 0.5,
        TWO_52 - 1.5,
        TWO_52 - 0.5,
        TWO_52 - 0.25,
        TWO_52,
        TWO_52 + 1.0,
        TWO_52 * 2.0 + 2.0,
    ];
    for multiplexing in [true, false] {
        let ops: Vec<Op> = edges
            .iter()
            .flat_map(|&x| [Op::Tick([x; EVENT_COUNT], 0.02), Op::Drain])
            .collect();
        check(multiplexing, &ops).unwrap();
    }
}

#[test]
fn counter_wrap_and_read_failures_match_the_reference() {
    let steady = [1_000.0; EVENT_COUNT];
    let mut ops = vec![Op::Preload(COUNTER_MASK - 300)];
    ops.extend((0..4).map(|_| Op::Tick(steady, 0.02)));
    ops.push(Op::ArmReadFailures(2));
    ops.extend((0..10).map(|_| Op::Tick(steady, 0.02)));
    ops.push(Op::Drain);
    for multiplexing in [true, false] {
        check(multiplexing, &ops).unwrap();
    }
}

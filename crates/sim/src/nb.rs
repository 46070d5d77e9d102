//! The shared north bridge: memory-controller contention.
//!
//! All cores share the NB (memory controller + L3). When several
//! memory-bound threads run together, queueing in the memory
//! controller inflates effective memory latency — the paper's §V-C1
//! explanation for why multi-programmed memory-bound workloads lose
//! energy efficiency at high VF states. We model the latency
//! multiplier as convex in controller utilisation:
//!
//! ```text
//! multiplier = 1 + γ · U²,   U = min(1, miss_rate / capacity)
//! ```
//!
//! Utilisation is computed from the previous sub-tick's miss traffic
//! (causal, no fixed-point iteration) and smoothed with an EMA so the
//! traffic↔latency feedback loop settles instead of oscillating.

use ppep_types::vf::NbVfState;

/// Contention state of the shared north bridge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NorthBridge {
    /// Sustainable L2-miss service rate at the stock NB point,
    /// misses per second.
    pub capacity: f64,
    /// Queueing sensitivity γ.
    pub gamma: f64,
    /// Utilisation cap to keep the multiplier finite.
    pub max_utilization: f64,
    state: NbVfState,
    last_multiplier: f64,
}

impl NorthBridge {
    /// FX-8320-like constants: two DDR3 DIMMs sustain on the order of
    /// 2·10⁸ line transfers per second through one controller.
    pub fn fx8320() -> Self {
        Self {
            capacity: 1.2e8,
            gamma: 4.5,
            max_utilization: 1.0,
            state: NbVfState::High,
            last_multiplier: 1.0,
        }
    }

    /// Current NB VF state.
    pub fn state(&self) -> NbVfState {
        self.state
    }

    /// Switches the NB operating point (the Fig. 11 study).
    pub fn set_state(&mut self, state: NbVfState) {
        self.state = state;
    }

    /// The memory-latency multiplier from contention, computed by the
    /// most recent [`NorthBridge::observe_miss_rate`] call (1.0 before
    /// any traffic).
    pub fn contention_multiplier(&self) -> f64 {
        self.last_multiplier
    }

    /// The leading-load latency factor of the NB state itself: the
    /// Fig. 11 study assumes leading-load cycles grow 50% at the low
    /// NB point.
    pub fn latency_factor(&self) -> f64 {
        match self.state {
            NbVfState::High => 1.0,
            NbVfState::Low => 1.5,
        }
    }

    /// Effective service capacity at the current NB state: the low
    /// point halves the controller clock, so throughput drops
    /// proportionally.
    pub fn effective_capacity(&self) -> f64 {
        match self.state {
            NbVfState::High => self.capacity,
            NbVfState::Low => self.capacity * 0.5,
        }
    }

    /// Records the chip-wide L2-miss rate of the elapsed sub-tick, in
    /// misses per second, and updates the contention multiplier used
    /// for the next one. A negative or NaN rate counts as no traffic.
    pub fn observe_miss_rate(&mut self, misses_per_second: f64) {
        let rate = misses_per_second.max(0.0);
        let u = (rate / self.effective_capacity()).min(self.max_utilization);
        let instantaneous = 1.0 + self.gamma * u * u;
        // Half-life of one sub-tick: damps the traffic↔latency loop.
        self.last_multiplier = 0.5 * self.last_multiplier + 0.5 * instantaneous;
    }

    /// Resets contention state (e.g. between experiments).
    pub fn reset(&mut self) {
        self.last_multiplier = 1.0;
    }
}

impl Default for NorthBridge {
    fn default() -> Self {
        Self::fx8320()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_traffic_no_contention() {
        let mut nb = NorthBridge::fx8320();
        assert_eq!(nb.contention_multiplier(), 1.0);
        nb.observe_miss_rate(0.0);
        assert_eq!(nb.contention_multiplier(), 1.0);
    }

    #[test]
    fn contention_grows_with_traffic() {
        let mut nb = NorthBridge::fx8320();
        nb.observe_miss_rate(0.25 * nb.capacity);
        let low = nb.contention_multiplier();
        nb.observe_miss_rate(0.8 * nb.capacity);
        let high = nb.contention_multiplier();
        assert!(low > 1.0 && high > low, "{low} then {high}");
    }

    #[test]
    fn utilisation_is_capped() {
        let mut nb = NorthBridge::fx8320();
        // Saturate: with U capped at 1, the EMA converges to 1 + γ.
        for _ in 0..50 {
            nb.observe_miss_rate(100.0 * nb.capacity);
        }
        let m = nb.contention_multiplier();
        assert!((m - (1.0 + nb.gamma)).abs() < 1e-6, "capped multiplier {m}");
    }

    #[test]
    fn ema_smooths_the_feedback_loop() {
        let mut nb = NorthBridge::fx8320();
        // One huge burst only partially moves the multiplier.
        nb.observe_miss_rate(100.0 * nb.capacity);
        let after_one = nb.contention_multiplier();
        assert!(after_one < 1.0 + nb.gamma, "one sample must not saturate");
        assert!(after_one > 1.5, "but must move substantially");
    }

    #[test]
    fn low_state_halves_capacity_and_raises_latency() {
        let mut nb = NorthBridge::fx8320();
        assert_eq!(nb.latency_factor(), 1.0);
        nb.set_state(NbVfState::Low);
        assert_eq!(nb.latency_factor(), 1.5);
        assert!((nb.effective_capacity() - nb.capacity * 0.5).abs() < 1e-9);
        // Same traffic congests more at the low point.
        let traffic = 0.4 * nb.capacity;
        nb.observe_miss_rate(traffic);
        let low_mult = nb.contention_multiplier();
        nb.set_state(NbVfState::High);
        nb.observe_miss_rate(traffic);
        let high_mult = nb.contention_multiplier();
        assert!(low_mult > high_mult);
    }

    #[test]
    fn reset_clears_contention() {
        let mut nb = NorthBridge::fx8320();
        nb.observe_miss_rate(0.9 * nb.capacity);
        assert!(nb.contention_multiplier() > 1.0);
        nb.reset();
        assert_eq!(nb.contention_multiplier(), 1.0);
    }

    #[test]
    fn negative_or_nan_rate_is_no_traffic() {
        let mut nb = NorthBridge::fx8320();
        for rate in [-1.0e9, f64::NEG_INFINITY, f64::NAN, -0.0] {
            nb.observe_miss_rate(rate);
            assert_eq!(nb.contention_multiplier(), 1.0, "rate {rate}");
        }
    }
}

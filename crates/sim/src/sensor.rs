//! The simulated power-measurement apparatus.
//!
//! The paper clamps a Pololu ACS711 Hall-effect sensor on the CPU's
//! +12 V line and samples it through an Arduino every 20 ms (§II).
//! Hall sensors are noisy: the ACS711's output noise plus ADC
//! quantisation put a floor under any model's achievable accuracy.
//! This sensor reproduces that: multiplicative gain noise, an additive
//! noise floor, and quantisation to 0.1 W.

use ppep_types::Watts;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A noisy, quantised power sensor.
///
/// ```
/// use ppep_sim::sensor::PowerSensor;
/// use ppep_types::Watts;
///
/// let mut sensor = PowerSensor::new(42);
/// let reading = sensor.sample(Watts::new(95.0));
/// assert!((reading.as_watts() - 95.0).abs() < 8.0);
/// ```
#[derive(Debug, Clone)]
pub struct PowerSensor {
    rng: StdRng,
    /// Standard deviation of multiplicative gain noise (fraction).
    pub gain_sigma: f64,
    /// Standard deviation of additive noise, watts.
    pub noise_floor: f64,
    /// Quantisation step, watts.
    pub quantum: f64,
}

impl PowerSensor {
    /// The ACS711-like defaults used throughout the reproduction.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            gain_sigma: 0.018,
            noise_floor: 0.5,
            quantum: 0.1,
        }
    }

    /// A perfectly accurate sensor, for ablation experiments.
    pub fn ideal(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            gain_sigma: 0.0,
            noise_floor: 0.0,
            quantum: 0.0,
        }
    }

    /// One 20 ms reading of the true power.
    pub fn sample(&mut self, true_power: Watts) -> Watts {
        let gauss = |rng: &mut StdRng| -> f64 {
            // Box-Muller from two uniforms.
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        };
        let mut w = true_power.as_watts();
        if self.gain_sigma > 0.0 {
            w *= 1.0 + self.gain_sigma * gauss(&mut self.rng);
        }
        if self.noise_floor > 0.0 {
            w += self.noise_floor * gauss(&mut self.rng);
        }
        if self.quantum > 0.0 {
            w = (w / self.quantum).round() * self.quantum;
        }
        Watts::new(w.max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_sensor_is_exact() {
        let mut s = PowerSensor::ideal(1);
        for p in [0.0, 35.2, 110.7] {
            assert_eq!(s.sample(Watts::new(p)).as_watts(), p);
        }
    }

    #[test]
    fn noise_is_unbiased_and_bounded() {
        let mut s = PowerSensor::new(42);
        let truth = 95.0;
        let n = 20_000;
        let mut sum = 0.0;
        let mut max_err: f64 = 0.0;
        for _ in 0..n {
            let r = s.sample(Watts::new(truth)).as_watts();
            sum += r;
            max_err = max_err.max((r - truth).abs());
        }
        let mean = sum / n as f64;
        assert!((mean - truth).abs() < 0.2, "sensor bias {mean} vs {truth}");
        // sigma ≈ sqrt((0.018*95)^2 + 0.5^2) ≈ 1.78 W; the 8 W bound
        // is ≈ 4.5 sigma.
        assert!(max_err < 8.0, "outlier {max_err} W");
        assert!(max_err > 0.5, "noise must actually be present");
    }

    #[test]
    fn quantisation_to_tenths() {
        let mut s = PowerSensor::new(7);
        s.gain_sigma = 0.0;
        s.noise_floor = 0.0;
        let r = s.sample(Watts::new(12.345)).as_watts();
        assert!((r - 12.3).abs() < 1e-9);
    }

    #[test]
    fn readings_never_negative() {
        let mut s = PowerSensor::new(3);
        for _ in 0..1000 {
            assert!(s.sample(Watts::new(0.05)).as_watts() >= 0.0);
        }
    }

    #[test]
    fn determinism_per_seed() {
        let mut a = PowerSensor::new(5);
        let mut b = PowerSensor::new(5);
        for _ in 0..100 {
            assert_eq!(a.sample(Watts::new(50.0)), b.sample(Watts::new(50.0)));
        }
    }
}

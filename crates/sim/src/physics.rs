//! The generative ("ground truth") power model.
//!
//! PPEP *fits* a linear-in-temperature idle model with cubic-in-voltage
//! coefficients (Eq. 2) and a single-α voltage-scaled linear dynamic
//! model (Eq. 3). For validation errors to arise the way they do on
//! silicon, the generator must be a *superset* of those forms:
//!
//! * leakage is exponential in both voltage and temperature (the paper
//!   notes the linear-in-T fit is an approximation that works over the
//!   normal operating range);
//! * each event class carries its own voltage exponent `β_i` spread
//!   around 2, while the fitted model assumes one shared `α`;
//! * dynamic power has a small temperature coefficient the fitted
//!   model omits entirely.
//!
//! All constants are calibrated so chip-level magnitudes resemble the
//! FX-8320: ~35 W idle (PG off, VF5), ~95–115 W fully loaded.
//!
//! The voltage-dependent terms (`(V/Vref)^β_i`, the leakage voltage
//! exponential, active idle) depend only on the VF operating point, so
//! [`PowerPhysics::at`] evaluates them once per point into a
//! [`VfPhysics`] table entry. The temperature terms depend only on the
//! die temperature, so [`PowerPhysics::temperature_factors`] evaluates
//! them once per sub-tick. The power formulas read both.

use ppep_pmc::EventCounts;
use ppep_types::vf::NbVfState;
use ppep_types::{Kelvin, Seconds, VfPoint, Volts, Watts};

/// Reference voltage at which per-event energies are specified (the
/// FX-8320's VF5 voltage).
pub const REFERENCE_VOLTAGE: Volts = Volts::new(1.320);

/// Reference temperature for the leakage and dynamic temperature terms.
pub const REFERENCE_TEMPERATURE: Kelvin = Kelvin::new(320.0);

/// Per-event dynamic energy parameters: energy per event at the
/// reference voltage, and the voltage exponent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventEnergy {
    /// Energy per event at [`REFERENCE_VOLTAGE`], in nanojoules.
    pub nanojoules: f64,
    /// Voltage exponent `β`: energy scales as `(V / Vref)^β`.
    pub beta: f64,
}

/// The voltage-dependent constants of a [`PowerPhysics`] at one VF
/// operating point, built by [`PowerPhysics::at`]. The fields are
/// private so an entry always matches the physics that built it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VfPhysics {
    /// The operating point the constants were evaluated at.
    point: VfPoint,
    /// `(V / Vref)^β_i` for each event class, in E1–E9 order.
    event_scale: [f64; 9],
    /// Leakage voltage factor `exp(leak_volt_coeff · (V − Vref))`.
    leak_voltage_factor: f64,
    /// CU active-idle power at this point.
    cu_active_idle: Watts,
}

impl VfPhysics {
    /// The operating point the constants were evaluated at.
    pub fn point(&self) -> VfPoint {
        self.point
    }
}

/// The temperature-dependent factors of a [`PowerPhysics`] at one die
/// temperature, built by [`PowerPhysics::temperature_factors`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemperatureFactors {
    /// Leakage temperature factor `exp(leak_temp_coeff · (T − Tref))`,
    /// shared by CU and NB leakage.
    leakage: f64,
    /// Dynamic temperature factor `1 + dyn_temp_coeff · (T − Tref)`.
    dynamic: f64,
}

/// The complete generative power model for one chip.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerPhysics {
    /// Per-core dynamic energy for the eight core-private event
    /// classes (E1–E8 order) plus dispatch stalls (E9).
    pub event_energy: [EventEnergy; 9],
    /// NB energy per L2 miss (L3/DRAM traffic) at the stock NB point,
    /// in nanojoules.
    pub nb_miss_nanojoules: f64,
    /// CU leakage at reference voltage/temperature, watts per CU.
    pub cu_leak_ref: f64,
    /// Leakage voltage sensitivity: `exp(leak_volt_coeff · (V − Vref))`.
    pub leak_volt_coeff: f64,
    /// Leakage temperature sensitivity: `exp(leak_temp_coeff · (T − Tref))`.
    pub leak_temp_coeff: f64,
    /// CU active-idle coefficient: watts per (V² · GHz) of housekeeping
    /// clocking while idle but not gated.
    pub cu_active_idle_coeff: f64,
    /// NB leakage at the stock NB voltage and reference temperature.
    pub nb_leak_ref: f64,
    /// NB active-idle power at the stock NB point, watts.
    pub nb_active_idle: f64,
    /// Always-on base power (I/O, PLLs) that never gates, watts.
    pub base_power: f64,
    /// Temperature coefficient of dynamic power (fractional per kelvin).
    pub dyn_temp_coeff: f64,
    /// Residual fraction of CU idle power that survives power gating.
    pub pg_residual: f64,
    /// Fractional drop of NB idle power at [`NbVfState::Low`]
    /// (the Fig. 11 study assumes 40%).
    pub nb_low_idle_drop: f64,
    /// Fractional drop of NB dynamic energy at [`NbVfState::Low`]
    /// (the Fig. 11 study assumes 36%).
    pub nb_low_dyn_drop: f64,
}

impl PowerPhysics {
    /// Calibrated FX-8320-class constants (see module docs).
    pub fn fx8320() -> Self {
        Self {
            event_energy: [
                EventEnergy {
                    nanojoules: 2.30,
                    beta: 2.00,
                }, // E1 retired µops
                EventEnergy {
                    nanojoules: 2.60,
                    beta: 2.30,
                }, // E2 FPU ops
                EventEnergy {
                    nanojoules: 0.75,
                    beta: 1.80,
                }, // E3 I-cache fetches
                EventEnergy {
                    nanojoules: 1.60,
                    beta: 2.00,
                }, // E4 D-cache accesses
                EventEnergy {
                    nanojoules: 3.30,
                    beta: 2.20,
                }, // E5 L2 requests
                EventEnergy {
                    nanojoules: 0.50,
                    beta: 1.95,
                }, // E6 branches
                EventEnergy {
                    nanojoules: 12.0,
                    beta: 2.15,
                }, // E7 mispredicts
                EventEnergy {
                    nanojoules: 8.00,
                    beta: 2.00,
                }, // E8 L2 misses (core side)
                EventEnergy {
                    nanojoules: 0.12,
                    beta: 2.00,
                }, // E9 stall cycles (clock/idle logic)
            ],
            nb_miss_nanojoules: 260.0,
            cu_leak_ref: 3.6,
            leak_volt_coeff: 3.2,
            leak_temp_coeff: 0.013,
            cu_active_idle_coeff: 0.50,
            nb_leak_ref: 2.5,
            nb_active_idle: 1.4,
            base_power: 1.2,
            dyn_temp_coeff: 0.0022,
            pg_residual: 0.03,
            nb_low_idle_drop: 0.40,
            nb_low_dyn_drop: 0.36,
        }
    }

    /// Constants for the six-core Phenom™ II X6 1090T (125 W TDP,
    /// older 45 nm process: higher leakage temperature sensitivity,
    /// larger per-event energies, no power gating).
    pub fn phenom_ii_x6() -> Self {
        Self {
            event_energy: [
                EventEnergy {
                    nanojoules: 1.30,
                    beta: 2.00,
                },
                EventEnergy {
                    nanojoules: 2.10,
                    beta: 2.10,
                },
                EventEnergy {
                    nanojoules: 0.70,
                    beta: 1.90,
                },
                EventEnergy {
                    nanojoules: 1.05,
                    beta: 2.00,
                },
                EventEnergy {
                    nanojoules: 3.00,
                    beta: 2.05,
                },
                EventEnergy {
                    nanojoules: 0.45,
                    beta: 1.95,
                },
                EventEnergy {
                    nanojoules: 11.0,
                    beta: 2.05,
                },
                EventEnergy {
                    nanojoules: 7.00,
                    beta: 2.00,
                },
                EventEnergy {
                    nanojoules: 0.10,
                    beta: 2.00,
                },
            ],
            nb_miss_nanojoules: 260.0,
            cu_leak_ref: 3.2, // per single-core "CU"
            leak_volt_coeff: 2.8,
            leak_temp_coeff: 0.015,
            cu_active_idle_coeff: 0.55,
            nb_leak_ref: 1.5,
            nb_active_idle: 1.0,
            base_power: 2.0,
            dyn_temp_coeff: 0.0010,
            pg_residual: 1.0, // no gating: residual never applies
            nb_low_idle_drop: 0.40,
            nb_low_dyn_drop: 0.36,
        }
    }

    /// The voltage-dependent constants at operating point `point`.
    pub fn at(&self, point: VfPoint) -> VfPhysics {
        let ratio = point.voltage / REFERENCE_VOLTAGE;
        VfPhysics {
            point,
            event_scale: self.event_energy.map(|e| ratio.powf(e.beta)),
            leak_voltage_factor: (self.leak_volt_coeff
                * (point.voltage.as_volts() - REFERENCE_VOLTAGE.as_volts()))
            .exp(),
            cu_active_idle: self.cu_active_idle(point),
        }
    }

    /// The temperature-dependent factors at die temperature `t`.
    pub fn temperature_factors(&self, t: Kelvin) -> TemperatureFactors {
        let above = t.as_kelvin() - REFERENCE_TEMPERATURE.as_kelvin();
        TemperatureFactors {
            leakage: (self.leak_temp_coeff * above).exp(),
            dynamic: 1.0 + self.dyn_temp_coeff * above,
        }
    }

    /// CU leakage power at operating point `at` and temperature
    /// factors `tf` (not gated).
    pub fn cu_leakage(&self, at: &VfPhysics, tf: &TemperatureFactors) -> Watts {
        Watts::new(self.cu_leak_ref * at.leak_voltage_factor * tf.leakage)
    }

    /// CU active-idle power (housekeeping clocking) at operating point
    /// `vf` while idle but not gated.
    pub fn cu_active_idle(&self, vf: VfPoint) -> Watts {
        Watts::new(
            self.cu_active_idle_coeff * vf.voltage.as_volts().powi(2) * vf.frequency.as_ghz(),
        )
    }

    /// Total idle power of one CU (leakage + active idle), not gated.
    pub fn cu_idle(&self, at: &VfPhysics, tf: &TemperatureFactors) -> Watts {
        self.cu_leakage(at, tf) + at.cu_active_idle
    }

    /// NB idle power (leakage + active idle) at NB state `nb` and
    /// temperature factors `tf`, not gated.
    pub fn nb_idle(&self, nb: NbVfState, tf: &TemperatureFactors) -> Watts {
        let stock = self.nb_leak_ref * tf.leakage + self.nb_active_idle;
        let scale = match nb {
            NbVfState::High => 1.0,
            NbVfState::Low => 1.0 - self.nb_low_idle_drop,
        };
        Watts::new(stock * scale)
    }

    /// Dynamic power of one core over `dt` given its event counts, its
    /// operating point `at`, and temperature factors `tf`.
    ///
    /// Counts are the nine E1–E9 totals for the period; the result is
    /// average power over the period.
    pub fn core_dynamic(
        &self,
        counts: &EventCounts,
        at: &VfPhysics,
        tf: &TemperatureFactors,
        dt: Seconds,
    ) -> Watts {
        let mut joules = 0.0;
        for ((energy, count), scale) in self
            .event_energy
            .iter()
            .zip(counts.power_model_vector())
            .zip(at.event_scale)
        {
            joules += energy.nanojoules * 1e-9 * count * scale;
        }
        Watts::new(joules * tf.dynamic / dt.as_secs())
    }

    /// NB dynamic power over `dt` from the chip-wide L2 miss count.
    pub fn nb_dynamic(&self, total_l2_misses: f64, nb: NbVfState, dt: Seconds) -> Watts {
        let scale = match nb {
            NbVfState::High => 1.0,
            NbVfState::Low => 1.0 - self.nb_low_dyn_drop,
        };
        Watts::new(self.nb_miss_nanojoules * 1e-9 * total_l2_misses * scale / dt.as_secs())
    }
}

impl Default for PowerPhysics {
    fn default() -> Self {
        Self::fx8320()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppep_pmc::events::EventId;
    use ppep_types::{Gigahertz, VfTable};

    fn vf5() -> VfPoint {
        VfTable::fx8320().point(VfTable::fx8320().highest())
    }

    fn vf1() -> VfPoint {
        VfTable::fx8320().point(VfTable::fx8320().lowest())
    }

    /// The table entry at a bare voltage (the frequency only feeds
    /// active idle).
    fn at_volts(p: &PowerPhysics, v: f64) -> VfPhysics {
        p.at(VfPoint::new(Volts::new(v), Gigahertz::new(3.5)))
    }

    fn temp(p: &PowerPhysics, kelvin: f64) -> TemperatureFactors {
        p.temperature_factors(Kelvin::new(kelvin))
    }

    #[test]
    fn chip_idle_magnitude_is_fx8320_like() {
        let p = PowerPhysics::fx8320();
        let tf = temp(&p, 315.0);
        let idle = 4.0 * p.cu_idle(&p.at(vf5()), &tf).as_watts()
            + p.nb_idle(NbVfState::High, &tf).as_watts()
            + p.base_power;
        assert!((25.0..=45.0).contains(&idle), "chip idle at VF5 = {idle} W");
    }

    #[test]
    fn leakage_monotonic_in_voltage_and_temperature() {
        let p = PowerPhysics::fx8320();
        let tf = temp(&p, 320.0);
        assert!(p.cu_leakage(&at_volts(&p, 1.32), &tf) > p.cu_leakage(&at_volts(&p, 0.888), &tf));
        let at = at_volts(&p, 1.1);
        assert!(p.cu_leakage(&at, &temp(&p, 340.0)) > p.cu_leakage(&at, &temp(&p, 305.0)));
    }

    #[test]
    fn leakage_near_linear_over_operating_range() {
        // The paper's Eq. 2 fits a line in T; verify the generator is
        // close to linear over 300-340 K (within a few percent of a
        // secant-line interpolation).
        let p = PowerPhysics::fx8320();
        let at = at_volts(&p, 1.32);
        let lo = p.cu_leakage(&at, &temp(&p, 300.0)).as_watts();
        let hi = p.cu_leakage(&at, &temp(&p, 340.0)).as_watts();
        let mid_true = p.cu_leakage(&at, &temp(&p, 320.0)).as_watts();
        let mid_linear = (lo + hi) / 2.0;
        let deviation = (mid_true - mid_linear).abs() / mid_true;
        assert!(deviation < 0.05, "leakage deviates {deviation} from linear");
        assert!(deviation > 0.0005, "generator must not be exactly linear");
    }

    #[test]
    fn vf1_idle_is_much_cheaper_than_vf5() {
        let p = PowerPhysics::fx8320();
        let tf = temp(&p, 310.0);
        let hi = p.cu_idle(&p.at(vf5()), &tf).as_watts();
        let lo = p.cu_idle(&p.at(vf1()), &tf).as_watts();
        assert!(lo < 0.5 * hi, "VF1 CU idle {lo} vs VF5 {hi}");
    }

    #[test]
    fn zero_counts_draw_zero_dynamic_power() {
        // The chip skips this evaluation for a core that retired
        // nothing; that is exact only because the result is a zero.
        for p in [PowerPhysics::fx8320(), PowerPhysics::phenom_ii_x6()] {
            for (_, point) in VfTable::fx8320_with_boost().iter() {
                for kelvin in [250.0, 300.0, 360.0] {
                    let w = p.core_dynamic(
                        &EventCounts::zero(),
                        &p.at(point),
                        &temp(&p, kelvin),
                        Seconds::new(0.02),
                    );
                    assert_eq!(w.as_watts(), 0.0);
                }
            }
        }
    }

    #[test]
    fn core_dynamic_magnitude_for_busy_core() {
        // A CPU-bound core at VF5: ~3.5e9 inst/s with typical rates.
        let p = PowerPhysics::fx8320();
        let dt = Seconds::new(0.2);
        let inst = 3.5e9 * 0.2;
        let mut c = EventCounts::zero();
        c.set(EventId::RetiredUops, 1.2 * inst);
        c.set(EventId::FpuPipeAssignment, 0.3 * inst);
        c.set(EventId::InstructionCacheFetches, 0.2 * inst);
        c.set(EventId::DataCacheAccesses, 0.45 * inst);
        c.set(EventId::RequestsToL2, 0.03 * inst);
        c.set(EventId::RetiredBranches, 0.15 * inst);
        c.set(EventId::RetiredMispredictedBranches, 0.005 * inst);
        c.set(EventId::L2CacheMisses, 0.001 * inst);
        c.set(EventId::DispatchStalls, 0.3 * inst);
        let w = p.core_dynamic(&c, &at_volts(&p, 1.32), &temp(&p, 325.0), dt);
        assert!(
            (8.0..=20.0).contains(&w.as_watts()),
            "busy core dynamic = {} W",
            w.as_watts()
        );
    }

    #[test]
    fn dynamic_scales_roughly_quadratically_with_voltage() {
        let p = PowerPhysics::fx8320();
        let dt = Seconds::new(0.2);
        let mut c = EventCounts::zero();
        c.set(EventId::RetiredUops, 1e9);
        let tf = p.temperature_factors(REFERENCE_TEMPERATURE);
        let hi = p.core_dynamic(&c, &at_volts(&p, 1.32), &tf, dt);
        let lo = p.core_dynamic(&c, &at_volts(&p, 0.888), &tf, dt);
        let ratio = hi / lo;
        let v_ratio: f64 = 1.32 / 0.888;
        assert!((ratio - v_ratio.powf(2.0)).abs() / ratio < 0.05);
    }

    #[test]
    fn dynamic_has_small_temperature_dependence() {
        let p = PowerPhysics::fx8320();
        let dt = Seconds::new(0.2);
        let mut c = EventCounts::zero();
        c.set(EventId::RetiredUops, 1e9);
        let at = at_volts(&p, 1.32);
        let cold = p.core_dynamic(&c, &at, &temp(&p, 305.0), dt);
        let hot = p.core_dynamic(&c, &at, &temp(&p, 340.0), dt);
        let rel = (hot - cold) / cold;
        assert!(rel > 0.0 && rel < 0.08, "temperature effect {rel}");
    }

    #[test]
    fn nb_low_state_saves_what_the_study_assumes() {
        let p = PowerPhysics::fx8320();
        let tf = temp(&p, 320.0);
        let idle_hi = p.nb_idle(NbVfState::High, &tf).as_watts();
        let idle_lo = p.nb_idle(NbVfState::Low, &tf).as_watts();
        assert!((idle_lo / idle_hi - 0.6).abs() < 1e-9, "idle drops 40%");
        let dt = Seconds::new(0.2);
        let dyn_hi = p.nb_dynamic(1e7, NbVfState::High, dt).as_watts();
        let dyn_lo = p.nb_dynamic(1e7, NbVfState::Low, dt).as_watts();
        assert!((dyn_lo / dyn_hi - 0.64).abs() < 1e-9, "dynamic drops 36%");
    }

    #[test]
    fn active_idle_scales_with_v_squared_f() {
        let p = PowerPhysics::fx8320();
        let a = p.cu_active_idle(VfPoint::new(Volts::new(1.0), Gigahertz::new(2.0)));
        let b = p.cu_active_idle(VfPoint::new(Volts::new(2.0), Gigahertz::new(2.0)));
        assert!((b / a - 4.0).abs() < 1e-9);
        let c = p.cu_active_idle(VfPoint::new(Volts::new(1.0), Gigahertz::new(4.0)));
        assert!((c / a - 2.0).abs() < 1e-9);
    }

    #[test]
    fn phenom_preset_differs_but_is_plausible() {
        let p = PowerPhysics::phenom_ii_x6();
        let tf = temp(&p, 315.0);
        let table = VfTable::phenom_ii_x6();
        let top = table.point(table.highest());
        let idle = 6.0 * p.cu_idle(&p.at(top), &tf).as_watts()
            + p.nb_idle(NbVfState::High, &tf).as_watts()
            + p.base_power;
        assert!((25.0..=60.0).contains(&idle), "Phenom idle = {idle} W");
    }
}

//! The simulator's per-VF physics tables against the closed-form
//! generator.
//!
//! `PowerPhysics::at` evaluates the voltage terms once per VF state,
//! `PowerPhysics::temperature_factors` the temperature terms once per
//! sub-tick, and `ThermalModel::decay` the RC decay once per step
//! length. The oracle below evaluates every formula per call, the way
//! the generator is written down — one `powf` per event class and one
//! `exp` per leakage term — and the table path must agree with it bit
//! for bit on every state of every shipped ladder.

use ppep_pmc::EventCounts;
use ppep_sim::physics::{PowerPhysics, REFERENCE_TEMPERATURE, REFERENCE_VOLTAGE};
use ppep_sim::thermal::ThermalModel;
use ppep_types::vf::NbVfState;
use ppep_types::{Kelvin, Seconds, VfPoint, VfTable, Volts, Watts};
use proptest::prelude::*;

/// The closed-form generator: every term evaluated on every call.
mod closed_form {
    use super::*;

    pub fn cu_leakage(p: &PowerPhysics, v: Volts, t: Kelvin) -> f64 {
        let vf = (p.leak_volt_coeff * (v.as_volts() - REFERENCE_VOLTAGE.as_volts())).exp();
        let tf = (p.leak_temp_coeff * (t.as_kelvin() - REFERENCE_TEMPERATURE.as_kelvin())).exp();
        p.cu_leak_ref * vf * tf
    }

    pub fn cu_idle(p: &PowerPhysics, vf: VfPoint, t: Kelvin) -> f64 {
        let active = p.cu_active_idle_coeff * vf.voltage.as_volts().powi(2) * vf.frequency.as_ghz();
        cu_leakage(p, vf.voltage, t) + active
    }

    pub fn nb_idle(p: &PowerPhysics, nb: NbVfState, t: Kelvin) -> f64 {
        let tf = (p.leak_temp_coeff * (t.as_kelvin() - REFERENCE_TEMPERATURE.as_kelvin())).exp();
        let stock = p.nb_leak_ref * tf + p.nb_active_idle;
        let scale = match nb {
            NbVfState::High => 1.0,
            NbVfState::Low => 1.0 - p.nb_low_idle_drop,
        };
        stock * scale
    }

    pub fn core_dynamic(
        p: &PowerPhysics,
        counts: &EventCounts,
        v: Volts,
        t: Kelvin,
        dt: Seconds,
    ) -> f64 {
        let mut joules = 0.0;
        for (energy, count) in p.event_energy.iter().zip(counts.power_model_vector()) {
            joules += energy.nanojoules * 1e-9 * count * (v / REFERENCE_VOLTAGE).powf(energy.beta);
        }
        let temp_factor =
            1.0 + p.dyn_temp_coeff * (t.as_kelvin() - REFERENCE_TEMPERATURE.as_kelvin());
        joules * temp_factor / dt.as_secs()
    }

    pub fn thermal_step(m: &ThermalModel, p: Watts, dt: Seconds) -> f64 {
        let target = m.ambient.as_kelvin() + p.as_watts() * m.r_th;
        let decay = (-dt.as_secs() / (m.r_th * m.c_th)).exp();
        target + (m.temperature().as_kelvin() - target) * decay
    }
}

/// Every shipped ladder with the physics it runs under.
fn presets() -> [(VfTable, PowerPhysics, ThermalModel); 3] {
    [
        (
            VfTable::fx8320(),
            PowerPhysics::fx8320(),
            ThermalModel::fx8320(),
        ),
        (
            VfTable::fx8320_with_boost(),
            PowerPhysics::fx8320(),
            ThermalModel::fx8320(),
        ),
        (
            VfTable::phenom_ii_x6(),
            PowerPhysics::phenom_ii_x6(),
            ThermalModel::new(0.30, 140.0, Kelvin::new(300.0)),
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn table_path_is_bit_identical_to_closed_form(
        values in prop::collection::vec(0.0f64..4e8, 12),
        zeroed in prop::collection::vec(any::<bool>(), 12),
        kelvin in 280.0f64..380.0,
        watts in 0.0f64..250.0,
        nb_low in any::<bool>(),
    ) {
        let mut counts = EventCounts::zero();
        for ((event, value), zero) in ppep_pmc::events::ALL_EVENTS.iter().zip(&values).zip(&zeroed) {
            counts.set(*event, if *zero { 0.0 } else { *value });
        }
        let t = Kelvin::new(kelvin);
        let nb = if nb_low { NbVfState::Low } else { NbVfState::High };
        let dt = ppep_types::time::POWER_SAMPLE_PERIOD;
        for (table, physics, thermal) in presets() {
            let tf = physics.temperature_factors(t);
            prop_assert_eq!(
                physics.nb_idle(nb, &tf).as_watts().to_bits(),
                closed_form::nb_idle(&physics, nb, t).to_bits()
            );
            for (vf, point) in table.iter() {
                let at = physics.at(point);
                prop_assert_eq!(
                    physics.cu_leakage(&at, &tf).as_watts().to_bits(),
                    closed_form::cu_leakage(&physics, point.voltage, t).to_bits(),
                    "{} {}", table.len(), vf
                );
                prop_assert_eq!(
                    physics.cu_idle(&at, &tf).as_watts().to_bits(),
                    closed_form::cu_idle(&physics, point, t).to_bits(),
                    "{} {}", table.len(), vf
                );
                prop_assert_eq!(
                    physics.core_dynamic(&counts, &at, &tf, dt).as_watts().to_bits(),
                    closed_form::core_dynamic(&physics, &counts, point.voltage, t, dt).to_bits(),
                    "{} {}", table.len(), vf
                );
            }
            let mut model = thermal;
            model.set_temperature(t);
            let expected = closed_form::thermal_step(&model, Watts::new(watts), dt);
            model.relax(Watts::new(watts), model.decay(dt));
            prop_assert_eq!(model.temperature().as_kelvin().to_bits(), expected.to_bits());
        }
    }
}

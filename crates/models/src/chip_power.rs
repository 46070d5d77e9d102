//! The composed chip power model: idle + dynamic, with the cross-VF
//! prediction path of Fig. 5.
//!
//! * **Estimation** (§IV-B): chip power at the *current* state =
//!   `Pidle(V, T)` (Eq. 2) + `Pdyn` from the current counters (Eq. 3).
//! * **Prediction** (§IV-C): chip power at *another* state = idle at
//!   the target voltage + dynamic from the counters the event
//!   predictor says the cores would produce there.
//! * **Power gating** (§IV-D): when PG is enabled, the Eq. 2 monolith
//!   is replaced by the decomposed `Pidle(CU)/Pidle(NB)/Pidle(Base)`
//!   model, which also yields per-core attribution (Eqs. 7–8).

use crate::dynamic::DynamicPowerModel;
use crate::event_pred::HwEventPredictor;
use crate::idle::IdlePowerModel;
use crate::pg::PgIdleModel;
use ppep_pmc::sampler::IntervalSample;
use ppep_types::{Error, Kelvin, Result, VfStateId, VfTable, Watts};

/// The composed PPEP chip power model.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipPowerModel {
    idle: IdlePowerModel,
    dynamic: DynamicPowerModel,
    pg: Option<PgIdleModel>,
}

impl ChipPowerModel {
    /// Composes a model for a PG-disabled chip.
    pub fn new(idle: IdlePowerModel, dynamic: DynamicPowerModel) -> Self {
        Self {
            idle,
            dynamic,
            pg: None,
        }
    }

    /// Adds the PG decomposition (enables the §V per-core paths).
    #[must_use]
    pub fn with_pg(mut self, pg: PgIdleModel) -> Self {
        self.pg = Some(pg);
        self
    }

    /// The idle sub-model.
    pub fn idle_model(&self) -> &IdlePowerModel {
        &self.idle
    }

    /// The dynamic sub-model.
    pub fn dynamic_model(&self) -> &DynamicPowerModel {
        &self.dynamic
    }

    /// The PG decomposition, when trained.
    pub fn pg_model(&self) -> Option<&PgIdleModel> {
        self.pg.as_ref()
    }

    /// Estimated chip **dynamic** power at the current state from
    /// per-core interval samples.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NonFinite`] when any core's projection is
    /// NaN/∞.
    pub fn estimate_dynamic(
        &self,
        samples: &[IntervalSample],
        vf: VfStateId,
        table: &VfTable,
    ) -> Result<Watts> {
        let v = table.point(vf).voltage;
        let mut total = Watts::ZERO;
        for s in samples {
            let rates = s.rates().power_model_vector();
            total += self.dynamic.estimate_core(&rates, v)?;
        }
        total.finite("chip dynamic power")
    }

    /// Estimated chip power at the current state (PG disabled):
    /// Eq. 2 idle + Eq. 3 dynamic.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NonFinite`] when either term is NaN/∞.
    pub fn estimate_chip(
        &self,
        samples: &[IntervalSample],
        vf: VfStateId,
        table: &VfTable,
        temperature: Kelvin,
    ) -> Result<Watts> {
        (self.idle.estimate(table.point(vf).voltage, temperature)?
            + self.estimate_dynamic(samples, vf, table)?)
        .finite("estimated chip power")
    }

    /// Predicted chip **dynamic** power at `to`, from samples measured
    /// at `from` (Fig. 5 steps 1–3).
    ///
    /// # Errors
    ///
    /// Propagates event-predictor validation errors.
    pub fn predict_dynamic(
        &self,
        samples: &[IntervalSample],
        from: VfStateId,
        to: VfStateId,
        table: &VfTable,
    ) -> Result<Watts> {
        let predictor = HwEventPredictor::new();
        let from_point = table.point(from);
        let to_point = table.point(to);
        let mut total = Watts::ZERO;
        for s in samples {
            let predicted = predictor.predict(s, from_point, to_point)?;
            total += self
                .dynamic
                .estimate_core(&predicted.power_rates(), to_point.voltage)?;
        }
        total.finite("predicted chip dynamic power")
    }

    /// Predicted chip power at `to` from samples measured at `from`
    /// (PG disabled). The temperature term uses the current diode
    /// reading — the paper does the same, since temperature moves
    /// slowly relative to a decision interval.
    ///
    /// # Errors
    ///
    /// Propagates event-predictor validation errors.
    pub fn predict_chip(
        &self,
        samples: &[IntervalSample],
        from: VfStateId,
        to: VfStateId,
        table: &VfTable,
        temperature: Kelvin,
    ) -> Result<Watts> {
        (self.idle.estimate(table.point(to).voltage, temperature)?
            + self.predict_dynamic(samples, from, to, table)?)
        .finite("predicted chip power")
    }

    /// Estimated chip power with power gating enabled: the PG
    /// decomposition replaces Eq. 2. `cu_active[i]` says whether CU i
    /// has any busy core; `cu_vf[i]` is its VF state.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotTrained`] when no PG model is attached, or
    /// validation errors from the decomposition.
    #[expect(
        clippy::indexing_slicing,
        reason = "cu indexes cu_vf, whose length equals the validated CU count"
    )]
    pub fn estimate_chip_pg(
        &self,
        samples: &[IntervalSample],
        cu_active: &[bool],
        cu_vf: &[VfStateId],
        table: &VfTable,
        cores_per_cu: usize,
    ) -> Result<Watts> {
        let pg = self
            .pg
            .as_ref()
            .ok_or_else(|| Error::NotTrained("PG idle model not fitted".into()))?;
        if samples.len() != cu_active.len() * cores_per_cu {
            return Err(Error::InvalidInput(format!(
                "{} samples for {} CUs × {} cores",
                samples.len(),
                cu_active.len(),
                cores_per_cu
            )));
        }
        let idle = pg.chip_idle_pg_enabled(cu_active, cu_vf)?;
        let mut dynamic = Watts::ZERO;
        for (i, s) in samples.iter().enumerate() {
            let cu = i / cores_per_cu;
            let v = table.point(cu_vf[cu]).voltage;
            dynamic += self
                .dynamic
                .estimate_core(&s.rates().power_model_vector(), v)?;
        }
        (idle + dynamic).finite("chip power (PG enabled)")
    }

    /// Per-core total power with gating enabled (Eq. 7 idle share +
    /// the core's own dynamic power). Idle cores report zero.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotTrained`] without a PG model and input
    /// validation errors.
    #[expect(
        clippy::indexing_slicing,
        reason = "busy and cu_vf are sized by the validated core/CU counts the loop iterates over"
    )]
    pub fn per_core_power_pg(
        &self,
        samples: &[IntervalSample],
        cu_vf: &[VfStateId],
        table: &VfTable,
        cores_per_cu: usize,
    ) -> Result<Vec<Watts>> {
        let pg = self
            .pg
            .as_ref()
            .ok_or_else(|| Error::NotTrained("PG idle model not fitted".into()))?;
        if samples.len() != cu_vf.len() * cores_per_cu {
            return Err(Error::InvalidInput("samples/cu_vf shape mismatch".into()));
        }
        let busy: Vec<bool> = samples
            .iter()
            .map(|s| s.counts.get(ppep_pmc::EventId::RetiredInstructions) > 0.0)
            .collect();
        let busy_total = busy.iter().filter(|b| **b).count();
        let mut out = Vec::with_capacity(samples.len());
        for (i, s) in samples.iter().enumerate() {
            if !busy[i] {
                out.push(Watts::ZERO);
                continue;
            }
            let cu = i / cores_per_cu;
            let busy_in_cu = busy
                .chunks(cores_per_cu)
                .nth(cu)
                .map_or(0, |cores| cores.iter().filter(|b| **b).count());
            let idle_share = pg.per_core_idle_pg_enabled(cu_vf[cu], busy_in_cu, busy_total)?;
            let v = table.point(cu_vf[cu]).voltage;
            let dynamic = self
                .dynamic
                .estimate_core(&s.rates().power_model_vector(), v)?;
            out.push((idle_share + dynamic).finite("per-core power (PG enabled)")?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::idle::IdleSample;
    use crate::pg::{PgIdleEntry, PgIdleModel};
    use ppep_pmc::{EventCounts, EventId};
    use ppep_types::{Seconds, Volts};

    fn idle_model() -> IdlePowerModel {
        // P = 0.1·T + 10·V (linear, easy to verify).
        let mut samples = Vec::new();
        for &v in &[0.888, 1.008, 1.128, 1.242, 1.320] {
            for i in 0..5 {
                let t = 305.0 + 5.0 * i as f64;
                samples.push(IdleSample {
                    voltage: Volts::new(v),
                    temperature: Kelvin::new(t),
                    power: Watts::new(0.1 * t + 10.0 * v),
                });
            }
        }
        IdlePowerModel::fit(&samples).unwrap()
    }

    fn dynamic_model() -> DynamicPowerModel {
        // Only E1 matters: 1 nJ per µop at V5, α = 2.
        let mut w = [0.0; 9];
        w[0] = 1.0e-9;
        DynamicPowerModel::from_parts(w, 2.0, Volts::new(1.320))
    }

    fn busy_sample(uops_per_sec: f64) -> IntervalSample {
        let dt = Seconds::new(0.2);
        let mut c = EventCounts::zero();
        let inst = 1.0e9 * dt.as_secs();
        c.set(EventId::RetiredInstructions, inst);
        c.set(EventId::CpuClocksNotHalted, 1.4 * inst);
        c.set(EventId::MabWaitCycles, 0.2 * inst);
        c.set(EventId::DispatchStalls, 0.45 * inst);
        c.set(EventId::RetiredUops, uops_per_sec * dt.as_secs());
        IntervalSample {
            counts: c,
            duration: dt,
        }
    }

    #[test]
    fn estimate_chip_adds_idle_and_dynamic() {
        let model = ChipPowerModel::new(idle_model(), dynamic_model());
        let table = VfTable::fx8320();
        let vf5 = table.highest();
        let t = Kelvin::new(320.0);
        let samples = vec![busy_sample(2.0e9), busy_sample(1.0e9)];
        let p = model
            .estimate_chip(&samples, vf5, &table, t)
            .unwrap()
            .as_watts();
        let expected_idle = 0.1 * 320.0 + 10.0 * 1.320;
        let expected_dyn = (2.0 + 1.0) * 1.0; // 3e9 µops/s × 1 nJ
        assert!((p - (expected_idle + expected_dyn)).abs() < 0.2, "{p}");
        let d = model
            .estimate_dynamic(&samples, vf5, &table)
            .unwrap()
            .as_watts();
        assert!((d - expected_dyn).abs() < 0.05);
    }

    #[test]
    fn predict_chip_scales_events_and_voltage() {
        let model = ChipPowerModel::new(idle_model(), dynamic_model());
        let table = VfTable::fx8320();
        let vf5 = table.highest();
        let vf1 = table.lowest();
        let t = Kelvin::new(320.0);
        // CPU-bound-ish sample: CPI 1.4, MCPI 0.2 at 3.5 GHz.
        let samples = vec![busy_sample(1.2e9)];
        let predicted = model
            .predict_chip(&samples, vf5, vf1, &table, t)
            .unwrap()
            .as_watts();
        // Predicted idle at VF1's voltage.
        let idle = 0.1 * 320.0 + 10.0 * 0.888;
        // CPI(1.4GHz) = 1.2 + 0.2·1.4/3.5 = 1.28. The sample's core was
        // only 40% unhalted (2.8e8 cycles of a 7e8-cycle interval), so
        // the predicted throughput scales by that utilisation.
        let ips = 0.4 * 1.4e9 / 1.28;
        let uops = 1.2 * ips; // per-inst fingerprint carried over
        let dynamic = uops * 1.0e-9 * (0.888_f64 / 1.320).powi(2);
        assert!(
            (predicted - (idle + dynamic)).abs() < 0.2,
            "{predicted} vs {}",
            idle + dynamic
        );
    }

    #[test]
    fn same_state_prediction_equals_estimation() {
        let model = ChipPowerModel::new(idle_model(), dynamic_model());
        let table = VfTable::fx8320();
        let vf5 = table.highest();
        let t = Kelvin::new(325.0);
        let samples = vec![busy_sample(1.5e9), busy_sample(0.5e9)];
        let est = model
            .estimate_chip(&samples, vf5, &table, t)
            .unwrap()
            .as_watts();
        let pred = model
            .predict_chip(&samples, vf5, vf5, &table, t)
            .unwrap()
            .as_watts();
        assert!((est - pred).abs() < 1e-6, "{est} vs {pred}");
    }

    fn pg_model() -> PgIdleModel {
        let entries = (0..5)
            .map(|i| PgIdleEntry {
                pidle_cu: Watts::new(2.0 + i as f64),
                pidle_nb: Watts::new(9.0),
            })
            .collect();
        PgIdleModel::from_parts(entries, Watts::new(5.0), 4)
    }

    #[test]
    fn pg_paths_require_pg_model() {
        let model = ChipPowerModel::new(idle_model(), dynamic_model());
        let table = VfTable::fx8320();
        let vf5 = table.highest();
        let samples = vec![busy_sample(1.0e9); 8];
        assert!(matches!(
            model.estimate_chip_pg(&samples, &[true; 4], &[vf5; 4], &table, 2),
            Err(Error::NotTrained(_))
        ));
        assert!(model.pg_model().is_none());
    }

    #[test]
    fn pg_estimate_counts_only_active_cus() {
        let model = ChipPowerModel::new(idle_model(), dynamic_model()).with_pg(pg_model());
        let table = VfTable::fx8320();
        let vf5 = table.highest();
        let idle_sample = IntervalSample {
            counts: EventCounts::zero(),
            duration: Seconds::new(0.2),
        };
        // One busy CU (cores 0-1), three gated.
        let samples = vec![
            busy_sample(1.0e9),
            busy_sample(1.0e9),
            idle_sample,
            idle_sample,
            idle_sample,
            idle_sample,
            idle_sample,
            idle_sample,
        ];
        let p = model
            .estimate_chip_pg(&samples, &[true, false, false, false], &[vf5; 4], &table, 2)
            .unwrap()
            .as_watts();
        // idle = CU(vf5)=6 + NB 9 + base 5 = 20; dynamic = 2 W.
        assert!((p - 22.0).abs() < 0.1, "{p}");
        // Shape validation.
        assert!(model
            .estimate_chip_pg(&samples[..4], &[true; 4], &[vf5; 4], &table, 2)
            .is_err());
    }

    #[test]
    fn per_core_attribution_sums_to_chip_minus_gated() {
        let model = ChipPowerModel::new(idle_model(), dynamic_model()).with_pg(pg_model());
        let table = VfTable::fx8320();
        let vf5 = table.highest();
        let idle_sample = IntervalSample {
            counts: EventCounts::zero(),
            duration: Seconds::new(0.2),
        };
        let samples = vec![
            busy_sample(2.0e9),
            idle_sample,
            busy_sample(1.0e9),
            idle_sample,
            idle_sample,
            idle_sample,
            idle_sample,
            idle_sample,
        ];
        let per_core = model
            .per_core_power_pg(&samples, &[vf5; 4], &table, 2)
            .unwrap();
        assert_eq!(per_core.len(), 8);
        assert_eq!(per_core[1], Watts::ZERO);
        // Core 0: CU idle 6 (alone in its CU) + (9+5)/2 shared + 2 W dyn.
        assert!((per_core[0].as_watts() - (6.0 + 7.0 + 2.0)).abs() < 0.05);
        // Core 2: CU idle 6 + 7 shared + 1 W dyn.
        assert!((per_core[2].as_watts() - 14.0).abs() < 0.05);
        // Sum equals the chip estimate for the same configuration.
        let total: f64 = per_core.iter().map(|w| w.as_watts()).sum();
        let chip = model
            .estimate_chip_pg(&samples, &[true, true, false, false], &[vf5; 4], &table, 2)
            .unwrap()
            .as_watts();
        assert!((total - chip).abs() < 0.05, "{total} vs {chip}");
    }
}

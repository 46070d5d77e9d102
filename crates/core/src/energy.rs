//! Next-interval energy prediction (§V-A, Fig. 6).
//!
//! For battery-budget decisions PPEP predicts the *next* interval's
//! energy from the *current* interval's model estimate: the model
//! error plus any phase change between neighbouring intervals is the
//! total prediction error the paper reports (3.6% average at VF5 for
//! PPEP versus ~7% for Green Governors).

use ppep_models::trainer::TrainedModels;
use ppep_telemetry::IntervalRecord;
use ppep_types::{Joules, Result};

/// Predicts next-interval chip energy with both PPEP and the Green
/// Governors baseline.
#[derive(Debug, Clone)]
pub struct EnergyPredictor {
    models: TrainedModels,
}

impl EnergyPredictor {
    /// Builds the predictor over trained models.
    pub fn new(models: TrainedModels) -> Self {
        Self { models }
    }

    /// The wrapped models.
    pub fn models(&self) -> &TrainedModels {
        &self.models
    }

    /// PPEP's prediction of the next interval's chip energy: the
    /// current interval's modelled chip power times the interval
    /// length.
    ///
    /// For heterogeneous per-CU assignments (per-CU capping), the
    /// idle term uses the highest assigned state — the shared rail
    /// must satisfy the fastest CU, matching
    /// [`ppep_models::chip_power::ChipPowerModel`]'s convention.
    ///
    /// # Errors
    ///
    /// Propagates model errors.
    pub fn predict_next_energy(&self, record: &IntervalRecord) -> Result<Joules> {
        let table = self.models.vf_table();
        let vf = max_cu_vf(record)?;
        let power = self.models.chip_power().estimate_chip(
            &record.samples,
            vf,
            table,
            record.temperature,
        )?;
        Ok(power * record.duration)
    }

    /// The Green Governors baseline's prediction of the next
    /// interval's chip energy (temperature-blind static table plus a
    /// single `IPS·V²f` activity term).
    ///
    /// # Errors
    ///
    /// Propagates model errors.
    pub fn predict_next_energy_gg(&self, record: &IntervalRecord) -> Result<Joules> {
        let table = self.models.vf_table();
        let ips = record.samples.iter().map(|s| s.ips()).sum::<f64>();
        let vf = max_cu_vf(record)?;
        let power = self
            .models
            .green_governors()
            .estimate_power(ips, vf, table)?;
        Ok(power * record.duration)
    }

    /// Relative prediction errors of consecutive-interval energy for a
    /// whole trace: entry `k` compares the prediction made from
    /// interval `k` against the measured energy of interval `k+1`.
    ///
    /// Returns `(ppep_errors, gg_errors)`.
    ///
    /// # Errors
    ///
    /// Returns an error for traces shorter than two intervals, and
    /// propagates model errors.
    pub fn trace_errors(&self, records: &[IntervalRecord]) -> Result<(Vec<f64>, Vec<f64>)> {
        if records.len() < 2 {
            return Err(ppep_types::Error::InvalidInput(
                "energy-prediction trace needs >= 2 intervals".into(),
            ));
        }
        let mut ppep = Vec::with_capacity(records.len() - 1);
        let mut gg = Vec::with_capacity(records.len() - 1);
        for pair in records.windows(2) {
            let [prev, next] = pair else { continue };
            let actual = next.measured_energy().as_joules();
            if actual <= 0.0 {
                continue;
            }
            let p = self.predict_next_energy(prev)?.as_joules();
            ppep.push((p - actual).abs() / actual);
            let g = self.predict_next_energy_gg(prev)?.as_joules();
            gg.push((g - actual).abs() / actual);
        }
        Ok((ppep, gg))
    }
}

/// The highest VF state assigned to any CU in the record — the shared
/// rail must satisfy the fastest CU.
fn max_cu_vf(record: &IntervalRecord) -> Result<ppep_types::VfStateId> {
    record
        .cu_vf
        .iter()
        .copied()
        .max()
        .ok_or_else(|| ppep_types::Error::InvalidInput("record has no CU VF states".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppep_rig::TrainingRig;
    use ppep_sim::chip::{ChipSimulator, SimConfig};
    use ppep_workloads::combos::instances;
    use std::sync::OnceLock;

    fn predictor() -> &'static EnergyPredictor {
        static P: OnceLock<EnergyPredictor> = OnceLock::new();
        P.get_or_init(|| {
            let mut rig = TrainingRig::fx8320(42);
            EnergyPredictor::new(rig.train_quick().expect("training succeeds"))
        })
    }

    fn trace(workload: &str, n: usize, intervals: usize) -> Vec<IntervalRecord> {
        let mut sim = ChipSimulator::new(SimConfig::fx8320(42));
        sim.load_workload(&instances(workload, n, 42));
        let _ = sim.run_intervals(5);
        sim.run_intervals(intervals)
    }

    #[test]
    fn ppep_energy_prediction_is_accurate() {
        let p = predictor();
        let records = trace("458.sjeng", 4, 15);
        let (ppep_errs, _) = p.trace_errors(&records).unwrap();
        let mean = ppep_errs.iter().sum::<f64>() / ppep_errs.len() as f64;
        assert!(mean < 0.12, "PPEP energy AAE {mean}");
    }

    #[test]
    fn ppep_beats_green_governors_on_memory_bound_work() {
        // GG cannot see NB power; a memory-bound workload exposes it.
        let p = predictor();
        let records = trace("433.milc", 4, 15);
        let (ppep_errs, gg_errs) = p.trace_errors(&records).unwrap();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let ppep_mean = mean(&ppep_errs);
        let gg_mean = mean(&gg_errs);
        assert!(
            ppep_mean < gg_mean,
            "PPEP {ppep_mean} must beat GG {gg_mean} on milc"
        );
    }

    #[test]
    fn single_prediction_magnitude() {
        let p = predictor();
        let records = trace("403.gcc", 2, 3);
        let e = p.predict_next_energy(&records[0]).unwrap().as_joules();
        // Chip at ~40-90 W for 0.2 s -> 8-18 J.
        assert!((5.0..=25.0).contains(&e), "interval energy {e} J");
        let g = p.predict_next_energy_gg(&records[0]).unwrap().as_joules();
        assert!(g > 0.0);
    }

    #[test]
    fn trace_errors_validation() {
        let p = predictor();
        assert!(p.trace_errors(&[]).is_err());
        let one = trace("403.gcc", 1, 1);
        assert!(p.trace_errors(&one).is_err());
    }
}

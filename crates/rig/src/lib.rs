//! The offline training rig.
//!
//! [`TrainingRig`] reproduces the paper's one-time offline training
//! flow (§IV) by driving the *simulated* chip — it is the only place
//! where model fitting and the simulator meet, which is why it lives
//! in its own crate: `ppep-models` stays substrate-neutral (it only
//! consumes [`ppep_telemetry::IntervalRecord`]s), and `ppep-core`
//! carries no simulator dependency at all.
//!
//! The flow:
//!
//! 1. **Idle model** — per VF state, heat the chip with a heavy
//!    workload, unload it, and record `(V, T, P)` while it cools
//!    (the Fig. 1 experiment), then fit Eq. 2.
//! 2. **α calibration** — run the steady, NB-silent `bench_a` at every
//!    VF state and fit `P_dyn ∝ f · V^α`.
//! 3. **Dynamic model** — run the training benchmarks at VF5,
//!    subtract modelled idle power from measured power, and regress on
//!    the nine chip-summed event rates (Eq. 3).
//! 4. **Green Governors baseline** — same data, single `IPS·V²f`
//!    regressor and a temperature-blind static table.
//! 5. **PG decomposition** (optional) — the Fig. 4 busy-CU sweep.
//!
//! Every simulator run of these steps is an independent, freshly
//! seeded cell, so the rig shards each sweep across its worker count
//! ([`TrainingRig::with_jobs`]) through [`shard::map`]. Each
//! cell reduces its own trace to the samples it contributes and the
//! results are combined in cell order: every fit sees the same inputs
//! in the same order, and the trained models are bit-identical for any
//! worker count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// No panics, exhaustive matches and bound span guards in non-test code;
// each surviving site carries `#[expect(.., reason)]` (DESIGN.md §8).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![cfg_attr(not(test), warn(clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::panic))]
#![cfg_attr(not(test), warn(clippy::unreachable))]
#![cfg_attr(not(test), warn(clippy::todo))]
#![cfg_attr(not(test), warn(clippy::unimplemented))]
#![cfg_attr(not(test), warn(clippy::indexing_slicing))]
#![cfg_attr(not(test), warn(clippy::wildcard_enum_match_arm))]
#![cfg_attr(not(test), warn(clippy::let_underscore_must_use))]

pub mod shard;

use ppep_models::dynamic::{estimate_alpha, DynSample, DynamicPowerModel};
use ppep_models::green_governors::{GgSample, GreenGovernors};
use ppep_models::idle::{IdlePowerModel, IdleSample};
use ppep_models::pg::{PgIdleModel, PgSweepPoint};
use ppep_models::trainer::{ComboTrace, TrainedModels, TrainingBudget, DEFAULT_RIDGE_LAMBDA};
use ppep_models::ChipPowerModel;
use ppep_sim::chip::{ChipSimulator, SimConfig};
use ppep_telemetry::IntervalRecord;
use ppep_types::{Error, Result, VfStateId, VfTable, Watts};
use ppep_workloads::combos::{instances, spec_combos};
use ppep_workloads::suites::bench_a;
use ppep_workloads::{Suite, WorkloadSpec};

/// Orchestrates simulator runs for training and validation.
#[derive(Debug, Clone)]
pub struct TrainingRig {
    config: SimConfig,
    seed: u64,
    jobs: usize,
}

impl TrainingRig {
    /// A rig for the FX-8320 platform (PG disabled, as in §IV-A..C).
    pub fn fx8320(seed: u64) -> Self {
        Self::with_config(SimConfig::fx8320(seed), seed)
    }

    /// A rig for the Phenom™ II X6 validation platform.
    pub fn phenom_ii_x6(seed: u64) -> Self {
        Self::with_config(SimConfig::phenom_ii_x6(seed), seed)
    }

    /// A rig with a custom simulator configuration.
    pub fn with_config(config: SimConfig, seed: u64) -> Self {
        Self {
            config,
            seed,
            jobs: 1,
        }
    }

    /// Sets how many workers each sweep shards its simulator runs
    /// across (clamped to at least 1; the default 1 is serial).
    /// Results are bit-identical for every worker count.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// The rig's base simulator configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The global seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// A fresh simulator in this rig's configuration.
    pub fn new_sim(&self) -> ChipSimulator {
        ChipSimulator::new(self.config.clone())
    }

    fn heavy_workload(&self) -> WorkloadSpec {
        instances("458.sjeng", self.config.topology.core_count(), self.seed)
    }

    fn bench_a_all_cores(&self) -> WorkloadSpec {
        WorkloadSpec::new(
            "bench_a x all",
            Suite::Micro,
            vec![bench_a(); self.config.topology.core_count()],
        )
    }

    /// Collects the Fig. 1 heat/cool idle traces at every VF state.
    pub fn collect_idle_traces(&self, budget: &TrainingBudget) -> Vec<IdleSample> {
        let states: Vec<VfStateId> = self.config.topology.vf_table().states().collect();
        shard::map(&states, self.jobs, |&vf| {
            self.collect_idle_trace_at(vf, budget).0
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Heat-then-cool at one VF state. Returns the idle samples (from
    /// the cooling portion) and the full interval records of the whole
    /// experiment, which Fig. 1 plots.
    pub fn collect_idle_trace_at(
        &self,
        vf: VfStateId,
        budget: &TrainingBudget,
    ) -> (Vec<IdleSample>, Vec<IntervalRecord>) {
        let mut sim = self.new_sim();
        sim.set_power_gating(false);
        sim.set_all_vf(vf);
        sim.load_workload(&self.heavy_workload());
        // The paper heats "until [the chip] reaches a steady-state
        // temperature"; emulate the long wait by jumping to the
        // thermal equilibrium of the measured load power, then letting
        // the remaining heat intervals settle any residual error.
        let probe = sim.run_intervals(5.min(budget.heat_intervals));
        if let Some(last) = probe.last() {
            let steady = self.config.thermal.ambient.as_kelvin()
                + self.config.thermal.r_th * last.measured_power.as_watts();
            sim.set_temperature(ppep_types::Kelvin::new(steady));
        }
        let mut records = probe;
        records.extend(sim.run_intervals(budget.heat_intervals.saturating_sub(5)));
        sim.clear_workload();
        let voltage = self.config.topology.vf_table().point(vf).voltage;
        let cooling = sim.run_intervals(budget.cool_intervals);
        let samples = cooling
            .iter()
            .map(|r| IdleSample {
                voltage,
                temperature: r.temperature,
                power: r.measured_power,
            })
            .collect();
        records.extend(cooling);
        (samples, records)
    }

    /// Calibrates α from `bench_a` runs at every VF state, using the
    /// already-fitted idle model to isolate dynamic power.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] when the budget records no
    /// intervals per run, and propagates α-estimation errors for
    /// degenerate data.
    pub fn calibrate_alpha(&self, idle: &IdlePowerModel, budget: &TrainingBudget) -> Result<f64> {
        require_records(budget, "α calibration")?;
        let table = self.config.topology.vf_table();
        let states: Vec<VfStateId> = table.states().collect();
        let points = shard::map(&states, self.jobs, |&vf| {
            let mut sim = self.new_sim();
            sim.set_power_gating(false);
            sim.set_all_vf(vf);
            sim.load_workload(&self.bench_a_all_cores());
            let _ = sim.run_intervals(budget.warmup_intervals);
            let records = sim.run_intervals(budget.record_intervals);
            let point = table.point(vf);
            let mut dyn_sum = 0.0;
            for r in &records {
                dyn_sum += r.measured_power.as_watts()
                    - idle.estimate(point.voltage, r.temperature)?.as_watts();
            }
            let mean_dyn = dyn_sum / records.len() as f64;
            Ok((
                point.voltage,
                point.frequency,
                Watts::new(mean_dyn.max(0.1)),
            ))
        });
        estimate_alpha(&points.into_iter().collect::<Result<Vec<_>>>()?)
    }

    /// Runs one workload at one VF state and records intervals after
    /// warm-up.
    pub fn collect_run(
        &self,
        spec: &WorkloadSpec,
        vf: VfStateId,
        budget: &TrainingBudget,
    ) -> ComboTrace {
        let mut sim = self.new_sim();
        sim.set_power_gating(false);
        sim.set_all_vf(vf);
        sim.load_workload(spec);
        let _ = sim.run_intervals(budget.warmup_intervals);
        let records = sim.run_intervals(budget.record_intervals);
        ComboTrace {
            name: spec.name().to_string(),
            suite: spec.suite(),
            vf,
            records,
        }
    }

    /// Converts one recorded interval into a dynamic-model training
    /// sample using the fitted idle model.
    ///
    /// # Errors
    ///
    /// Propagates idle-model estimation errors.
    pub fn dyn_sample_from(
        record: &IntervalRecord,
        idle: &IdlePowerModel,
        table: &VfTable,
    ) -> Result<DynSample> {
        let vf = record.cu_vf.first().copied().unwrap_or_default();
        let voltage = table.point(vf).voltage;
        let idle_w = idle.estimate(voltage, record.temperature)?.as_watts();
        let mut rates = [0.0; 9];
        for s in &record.samples {
            let v = s.rates().power_model_vector();
            for (acc, r) in rates.iter_mut().zip(v) {
                *acc += r;
            }
        }
        Ok(DynSample {
            rates,
            power: Watts::new((record.measured_power.as_watts() - idle_w).max(0.0)),
        })
    }

    /// Chip-summed instructions per second of a recorded interval.
    pub fn chip_ips(record: &IntervalRecord) -> f64 {
        record.samples.iter().map(|s| s.ips()).sum()
    }

    /// Collects the Fig. 4 PG sweep: `bench_a` on 0–N CUs, gating
    /// enabled and disabled, at every VF state.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] when the budget records no
    /// intervals per run (the mean power would be NaN).
    pub fn collect_pg_sweep(&self, budget: &TrainingBudget) -> Result<Vec<PgSweepPoint>> {
        require_records(budget, "the PG sweep")?;
        let cu_count = self.config.topology.cu_count();
        let cells: Vec<(VfStateId, usize, bool)> = self
            .config
            .topology
            .vf_table()
            .states()
            .flat_map(|vf| {
                (0..=cu_count).flat_map(move |busy| [(vf, busy, false), (vf, busy, true)])
            })
            .collect();
        Ok(shard::map(&cells, self.jobs, |&(vf, busy_cus, pg)| {
            let mut sim = self.new_sim();
            sim.set_power_gating(pg);
            sim.set_all_vf(vf);
            if busy_cus > 0 {
                // One bench_a instance per busy CU; placement spreads
                // across CUs first, matching the paper.
                let spec = WorkloadSpec::new(
                    format!("bench_a x{busy_cus}"),
                    Suite::Micro,
                    vec![bench_a(); busy_cus],
                );
                sim.load_workload(&spec);
            }
            let _ = sim.run_intervals(budget.warmup_intervals);
            let records = sim.run_intervals(budget.record_intervals);
            let mean = records
                .iter()
                .map(|r| r.measured_power.as_watts())
                .sum::<f64>()
                / records.len() as f64;
            PgSweepPoint {
                vf,
                busy_cus,
                pg_enabled: pg,
                power: Watts::new(mean),
            }
        }))
    }

    /// Full training pipeline over the given training workloads (run
    /// at the highest VF state, as in the paper).
    ///
    /// # Errors
    ///
    /// Propagates any fitting error.
    pub fn train(
        &self,
        training_specs: &[WorkloadSpec],
        budget: &TrainingBudget,
    ) -> Result<TrainedModels> {
        let table = self.config.topology.vf_table().clone();
        let vf_top = table.highest();

        // 1. Idle model.
        let idle_samples = self.collect_idle_traces(budget);
        let idle = IdlePowerModel::fit(&idle_samples)?;

        // 2. Alpha.
        let alpha = self.calibrate_alpha(&idle, budget)?;

        // 3. Dynamic model on VF5 runs, each run reduced to its
        //    samples on its worker.
        let per_spec = shard::map(training_specs, self.jobs, |spec| {
            let trace = self.collect_run(spec, vf_top, budget);
            trace
                .records
                .iter()
                .map(|record| {
                    let gg = GgSample {
                        ips: Self::chip_ips(record),
                        vf: vf_top,
                        power: record.measured_power,
                    };
                    Ok((Self::dyn_sample_from(record, &idle, &table)?, gg))
                })
                .collect::<Result<Vec<_>>>()
        });
        let mut dyn_samples = Vec::new();
        let mut gg_samples = Vec::new();
        for samples in per_spec {
            for (dyn_sample, gg_sample) in samples? {
                dyn_samples.push(dyn_sample);
                gg_samples.push(gg_sample);
            }
        }
        let v_top = table.point(vf_top).voltage;
        let dynamic = DynamicPowerModel::fit(&dyn_samples, alpha, v_top, DEFAULT_RIDGE_LAMBDA)?;

        // 4. Green Governors: temperature-blind static table from the
        //    mean idle power observed per VF state.
        let mut static_table = Vec::with_capacity(table.len());
        for vf in table.states() {
            let v = table.point(vf).voltage;
            let at_v: Vec<f64> = idle_samples
                .iter()
                .filter(|s| (s.voltage.as_volts() - v.as_volts()).abs() < 1e-9)
                .map(|s| s.power.as_watts())
                .collect();
            let mean = at_v.iter().sum::<f64>() / at_v.len().max(1) as f64;
            static_table.push(Watts::new(mean));
        }
        let green_governors = GreenGovernors::fit(static_table, &gg_samples, &table)?;

        Ok(TrainedModels::from_parts(
            ChipPowerModel::new(idle, dynamic),
            green_governors,
            alpha,
            table,
            self.config.topology.clone(),
        ))
    }

    /// A fast end-to-end training pass on a small training set —
    /// for tests, examples, and doc tests.
    ///
    /// # Errors
    ///
    /// Propagates any fitting error.
    pub fn train_quick(&mut self) -> Result<TrainedModels> {
        // A small cross-section covering integer and floating-point
        // codes, several memory-boundedness levels, and several
        // busy-core counts — a regression with nine event regressors
        // needs every event class exercised.
        let spec = spec_combos(self.seed);
        let mut specs: Vec<WorkloadSpec> = spec.iter().take(4).cloned().collect();
        specs.push(instances("410.bwaves", 1, self.seed)); // FP, memory-bound
        specs.push(instances("453.povray", 1, self.seed)); // FP, CPU-bound
        if let Some(quad) = spec.get(55) {
            specs.push(quad.clone()); // a quad-programmed combination
        }
        let threads = self.config.topology.core_count().min(4);
        specs.push(instances("462.libquantum", 2, self.seed));
        specs.push(instances("canneal", threads, self.seed));
        specs.push(instances("facesim", threads, self.seed)); // FP, multi-threaded
        let models = self.train(&specs, &TrainingBudget::quick())?;
        // Attach the PG decomposition when the platform gates, so the
        // §V projection paths work out of the box.
        if self.config.topology.supports_power_gating() {
            let sweep = self.collect_pg_sweep(&TrainingBudget::quick())?;
            let pg = PgIdleModel::fit(&sweep, self.config.topology.cu_count())?;
            return Ok(models.with_pg(pg));
        }
        Ok(models)
    }
}

/// Rejects a budget whose runs record no intervals: a per-run mean
/// over zero records is NaN (or a silent floor), never a measurement.
fn require_records(budget: &TrainingBudget, sweep: &str) -> Result<()> {
    if budget.record_intervals == 0 {
        return Err(Error::InvalidInput(format!(
            "{sweep} needs record_intervals > 0 to average power over"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_models() -> TrainedModels {
        TrainingRig::fx8320(42)
            .train_quick()
            .expect("training succeeds")
    }

    #[test]
    fn training_pipeline_produces_sane_models() {
        let models = quick_models();
        // Alpha should land near the generator's ~2.0 exponents.
        assert!(
            (1.5..=2.6).contains(&models.alpha()),
            "alpha = {}",
            models.alpha()
        );
        // At least some dynamic weights must be positive.
        let positive = models
            .dynamic_model()
            .weights()
            .iter()
            .filter(|w| **w > 0.0)
            .count();
        assert!(positive >= 3, "only {positive} positive weights");
        assert_eq!(models.vf_table().len(), 5);
        assert_eq!(models.topology().core_count(), 8);
    }

    #[test]
    fn idle_model_tracks_simulator_idle_power() {
        let rig = TrainingRig::fx8320(42);
        let budget = TrainingBudget::quick();
        let samples = rig.collect_idle_traces(&budget);
        let idle = IdlePowerModel::fit(&samples).unwrap();
        // Every sample should be reproduced within a few percent.
        let mut worst = 0.0_f64;
        for s in &samples {
            let est = idle.estimate(s.voltage, s.temperature).unwrap().as_watts();
            let rel = (est - s.power.as_watts()).abs() / s.power.as_watts();
            worst = worst.max(rel);
        }
        assert!(worst < 0.10, "worst idle fit error {worst}");
    }

    #[test]
    fn trained_chip_model_estimates_measured_power_closely() {
        let models = quick_models();
        let rig = TrainingRig::fx8320(42);
        let budget = TrainingBudget::quick();
        // Validate on a combo that was NOT in the 8 training specs
        // (training takes the first 8 SPEC singles; 433.milc x2 is a
        // different combination).
        let spec = instances("433.milc", 2, 42);
        let table = models.vf_table().clone();
        let trace = rig.collect_run(&spec, table.highest(), &budget);
        let mut errors = Vec::new();
        for r in &trace.records {
            let est = models
                .chip_power()
                .estimate_chip(&r.samples, r.cu_vf[0], &table, r.temperature)
                .unwrap()
                .as_watts();
            errors.push((est - r.measured_power.as_watts()).abs() / r.measured_power.as_watts());
        }
        let mean = errors.iter().sum::<f64>() / errors.len() as f64;
        assert!(mean < 0.12, "chip power AAE {mean} too high");
    }

    #[test]
    fn idle_trace_covers_a_useful_temperature_range() {
        let rig = TrainingRig::fx8320(42);
        let (samples, records) = rig.collect_idle_trace_at(
            rig.config().topology.vf_table().highest(),
            &TrainingBudget::quick(),
        );
        let temps: Vec<f64> = samples.iter().map(|s| s.temperature.as_kelvin()).collect();
        let span = temps.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - temps.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(span > 3.0, "cooling trace spans {span} K");
        // The record trace shows heat-up then cool-down (Fig. 1 shape).
        let peak_idx = records
            .iter()
            .enumerate()
            .max_by(|a, b| {
                a.1.temperature
                    .as_kelvin()
                    .partial_cmp(&b.1.temperature.as_kelvin())
                    .unwrap()
            })
            .unwrap()
            .0;
        // The peak sits inside the heating phase (the heat-to-steady
        // jump happens after a 5-interval probe) and well before the
        // end of the cooling phase.
        assert!(
            peak_idx >= 4,
            "temperature must rise first (peak at {peak_idx})"
        );
        assert!(peak_idx < records.len() - 5, "and fall afterwards");
    }

    fn zero_record_budget() -> TrainingBudget {
        TrainingBudget {
            record_intervals: 0,
            ..TrainingBudget::quick()
        }
    }

    #[test]
    fn pg_sweep_rejects_a_zero_record_budget() {
        let rig = TrainingRig::fx8320(42);
        assert!(matches!(
            rig.collect_pg_sweep(&zero_record_budget()),
            Err(Error::InvalidInput(_))
        ));
    }

    #[test]
    fn alpha_calibration_rejects_a_zero_record_budget() {
        let rig = TrainingRig::fx8320(42);
        let idle = IdlePowerModel::fit(&rig.collect_idle_traces(&TrainingBudget::quick())).unwrap();
        assert!(matches!(
            rig.calibrate_alpha(&idle, &zero_record_budget()),
            Err(Error::InvalidInput(_))
        ));
    }

    #[test]
    fn pg_sweep_produces_fig4_shape() {
        let rig = TrainingRig::fx8320(42);
        let mut budget = TrainingBudget::quick();
        budget.warmup_intervals = 3;
        budget.record_intervals = 3;
        let sweep = rig.collect_pg_sweep(&budget).unwrap();
        let table = rig.config().topology.vf_table().clone();
        let vf5 = table.highest();
        let find = |k: usize, pg: bool| {
            sweep
                .iter()
                .find(|p| p.vf == vf5 && p.busy_cus == k && p.pg_enabled == pg)
                .unwrap()
                .power
                .as_watts()
        };
        // Fully busy: no difference (nothing gated).
        let full_gap = (find(4, false) - find(4, true)).abs();
        assert!(full_gap < 3.0, "4-CU gap {full_gap}");
        // Idle: large difference (everything gated).
        let idle_gap = find(0, false) - find(0, true);
        assert!(idle_gap > 10.0, "idle gap {idle_gap}");
        // Gap grows as fewer CUs are busy.
        let g3 = find(3, false) - find(3, true);
        let g1 = find(1, false) - find(1, true);
        assert!(g1 > g3, "gap must grow with idle CUs: {g1} vs {g3}");
        // And the PG model fits it.
        let model = PgIdleModel::fit(&sweep, 4).unwrap();
        assert!(model.pidle_cu(vf5).unwrap().as_watts() > 1.0);
        assert!(model.pidle_base().as_watts() > 0.0);
    }
}

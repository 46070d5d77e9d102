//! Ablation studies: where does PPEP's error actually come from?
//!
//! The paper names its error sources — counter multiplexing (§IV-B2),
//! sensor limitations (§II), the single-α voltage scaling (§IV-B1) —
//! but cannot isolate them on real hardware. The simulator can: each
//! ablation disables one non-ideality and re-measures the chip-power
//! estimation error, attributing the error budget.
//!
//! | Ablation | What changes |
//! |---|---|
//! | `ideal_pmu` | all 12 events observed continuously (no ×2 multiplexing extrapolation) |
//! | `ideal_sensor` | noise-free power measurements (training + validation) |
//! | `both` | both of the above |
//!
//! The residual error under `both` is the structural model error:
//! per-event voltage exponents vs. one α, the omitted temperature
//! dependence of dynamic power, and data-dependent switching.

use crate::common::{Context, Scale};
use ppep_models::trainer::{TrainedModels, TrainingBudget};
use ppep_rig::{shard, TrainingRig};
use ppep_sim::chip::SimConfig;
use ppep_types::{Result, VfStateId};
use ppep_workloads::WorkloadSpec;

/// One ablation configuration: which instrument non-idealities the
/// simulator drops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ablation {
    /// The realistic simulator: multiplexed PMU, noisy power sensor.
    Realistic,
    /// All 12 events observed continuously.
    IdealPmu,
    /// Noise-free power measurements.
    IdealSensor,
    /// Both of the above.
    Both,
}

impl Ablation {
    /// Every configuration, in table order (realistic first).
    pub const ALL: [Self; 4] = [
        Self::Realistic,
        Self::IdealPmu,
        Self::IdealSensor,
        Self::Both,
    ];

    /// The configuration's label in the table and `ablations.csv`.
    pub fn label(self) -> &'static str {
        match self {
            Self::Realistic => "realistic",
            Self::IdealPmu => "ideal_pmu",
            Self::IdealSensor => "ideal_sensor",
            Self::Both => "both",
        }
    }

    fn config(self, seed: u64) -> SimConfig {
        let mut cfg = SimConfig::fx8320(seed);
        match self {
            Self::Realistic => {}
            Self::IdealPmu => cfg.ideal_pmu = true,
            Self::IdealSensor => cfg.ideal_sensor = true,
            Self::Both => {
                cfg.ideal_pmu = true;
                cfg.ideal_sensor = true;
            }
        }
        cfg
    }
}

/// One ablation configuration's measured error.
#[derive(Debug, Clone)]
pub struct AblationPoint {
    /// The configuration.
    pub ablation: Ablation,
    /// Chip-power estimation AAE over the validation runs.
    pub chip_aae: f64,
    /// Dynamic-power estimation AAE.
    pub dynamic_aae: f64,
}

/// The experiment's result.
#[derive(Debug, Clone)]
pub struct AblationResult {
    /// Errors per configuration, realistic first.
    pub points: Vec<AblationPoint>,
}

/// One validation run, reduced to its chip and dynamic relative
/// errors.
fn run_errors(
    rig: &TrainingRig,
    models: &TrainedModels,
    spec: &WorkloadSpec,
    vf: VfStateId,
    budget: &TrainingBudget,
) -> Result<(Vec<f64>, Vec<f64>)> {
    let table = models.vf_table();
    let idle = models.idle_model();
    let voltage = table.point(vf).voltage;
    let mut chip_errs = Vec::new();
    let mut dyn_errs = Vec::new();
    for r in &rig.collect_run(spec, vf, budget).records {
        let idle_w = idle.estimate(voltage, r.temperature)?.as_watts();
        let sample = TrainingRig::dyn_sample_from(r, idle, table)?;
        let est_dyn = models
            .dynamic_model()
            .estimate_core(&sample.rates, voltage)?
            .as_watts();
        let measured = r.measured_power.as_watts();
        let measured_dyn = measured - idle_w;
        if measured_dyn > 0.5 {
            dyn_errs.push((est_dyn - measured_dyn).abs() / measured_dyn);
        }
        chip_errs.push((idle_w + est_dyn - measured).abs() / measured);
    }
    Ok((chip_errs, dyn_errs))
}

/// Runs all four ablation configurations.
///
/// Training happens at the top VF state; validation re-runs the same
/// workloads at **every** VF state. Keeping the workload mix fixed
/// isolates the instrument and voltage-scaling error contributions
/// from workload-generalisation effects (which Fig. 2's
/// cross-validation measures instead).
///
/// The four trainings shard across the context's workers, then so do
/// all configurations' validation runs together.
///
/// # Errors
///
/// Propagates training errors.
pub fn run(ctx: &Context) -> Result<AblationResult> {
    let budget = ctx.scale.budget();
    let roster = ctx.scale.roster(ctx.seed);
    let train: Vec<WorkloadSpec> = match ctx.scale {
        Scale::Full => roster.iter().step_by(4).cloned().collect(),
        Scale::Quick => roster.iter().take(8).cloned().collect(),
    };

    let trained = shard::map(&Ablation::ALL, ctx.jobs, |&ablation| {
        let rig = TrainingRig::with_config(ablation.config(ctx.seed), ctx.seed);
        let models = rig.train(&train, &budget)?;
        Ok((ablation, rig, models))
    })
    .into_iter()
    .collect::<Result<Vec<_>>>()?;

    // Configuration-major, then workload, then VF state.
    let cells: Vec<_> = trained
        .iter()
        .flat_map(|(_, rig, models)| {
            train.iter().flat_map(move |spec| {
                models
                    .vf_table()
                    .states()
                    .map(move |vf| (rig, models, spec, vf))
            })
        })
        .collect();
    let mut errors = shard::map(&cells, ctx.jobs, |&(rig, models, spec, vf)| {
        run_errors(rig, models, spec, vf, &budget)
    })
    .into_iter();
    let mut points = Vec::new();
    for (ablation, _, models) in &trained {
        let (mut chip_errs, mut dyn_errs) = (Vec::new(), Vec::new());
        for cell in errors.by_ref().take(train.len() * models.vf_table().len()) {
            let (chip, dynamic) = cell?;
            chip_errs.extend(chip);
            dyn_errs.extend(dynamic);
        }
        points.push(AblationPoint {
            ablation: *ablation,
            chip_aae: ppep_regress::stats::mean(&chip_errs),
            dynamic_aae: ppep_regress::stats::mean(&dyn_errs),
        });
    }
    Ok(AblationResult { points })
}

/// Prints the ablation table.
pub fn print(result: &AblationResult) {
    println!("== Ablations: error attribution for the chip power model ==");
    let rows: Vec<Vec<String>> = result
        .points
        .iter()
        .map(|p| {
            vec![
                p.ablation.label().to_string(),
                crate::common::pct(p.chip_aae),
                crate::common::pct(p.dynamic_aae),
            ]
        })
        .collect();
    crate::common::print_table(&["configuration", "chip AAE", "dynamic AAE"], &rows);
    if let (Some(real), Some(both)) = (
        result
            .points
            .iter()
            .find(|p| p.ablation == Ablation::Realistic),
        result.points.iter().find(|p| p.ablation == Ablation::Both),
    ) {
        println!(
            "structural (model-form) error floor: {} of the {} total",
            crate::common::pct(both.chip_aae),
            crate::common::pct(real.chip_aae)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::DEFAULT_SEED;

    #[test]
    fn ideal_instruments_reduce_error() {
        let ctx = Context::fx8320(Scale::Quick, DEFAULT_SEED);
        let r = run(&ctx).unwrap();
        assert_eq!(r.points.len(), 4);
        let get = |ablation: Ablation| {
            r.points
                .iter()
                .find(|p| p.ablation == ablation)
                .unwrap_or_else(|| panic!("missing {ablation:?}"))
        };
        let realistic = get(Ablation::Realistic);
        let both = get(Ablation::Both);
        // Removing both instrument non-idealities must not hurt.
        assert!(
            both.chip_aae <= realistic.chip_aae * 1.05,
            "both {} vs realistic {}",
            both.chip_aae,
            realistic.chip_aae
        );
        // But a structural floor remains (switching factors, beta
        // spread, temperature term): the error does not collapse to 0.
        assert!(
            both.chip_aae > 0.002,
            "structural floor missing: {}",
            both.chip_aae
        );
        for p in &r.points {
            assert!(
                p.chip_aae < p.dynamic_aae,
                "{}: chip must beat dynamic",
                p.ablation.label()
            );
        }
    }
}

//! §IV-A — idle-power model accuracy per VF state.
//!
//! The paper reports the chip idle power model's AAE per VF state:
//! 2/3/4/3/3% from VF5 down to VF1 on the FX-8320 and 3/2/2/2% on the
//! Phenom II. We fit on one set of heat/cool traces and validate on a
//! freshly collected set (different noise realisation), per VF state.

use crate::common::Context;
use ppep_models::idle::IdlePowerModel;
use ppep_rig::{shard, TrainingRig};
use ppep_types::{Result, VfStateId};

/// The experiment's result.
#[derive(Debug, Clone)]
pub struct IdleAccuracyResult {
    /// `(state, AAE)` per VF state, slowest first.
    pub per_vf: Vec<(VfStateId, f64)>,
    /// Mean AAE across states.
    pub mean: f64,
}

/// Runs the idle-model validation.
///
/// # Errors
///
/// Propagates fitting errors.
pub fn run(ctx: &Context) -> Result<IdleAccuracyResult> {
    let budget = ctx.scale.budget();
    // Fit on the context seed…
    let train_samples = ctx.rig.collect_idle_traces(&budget);
    let model = IdlePowerModel::fit(&train_samples)?;
    // …validate on an independent noise realisation.
    let test_rig = match ctx.rig.config().topology.cores_per_cu() {
        2 => TrainingRig::fx8320(ctx.seed ^ 0xDEAD),
        _ => TrainingRig::phenom_ii_x6(ctx.seed ^ 0xDEAD),
    };
    let states: Vec<VfStateId> = ctx.rig.config().topology.vf_table().states().collect();
    let per_vf = shard::map(&states, ctx.jobs, |&vf| {
        let (samples, _) = test_rig.collect_idle_trace_at(vf, &budget);
        let mut errors = Vec::with_capacity(samples.len());
        for s in &samples {
            let est = model.estimate(s.voltage, s.temperature)?.as_watts();
            errors.push((est - s.power.as_watts()).abs() / s.power.as_watts());
        }
        Ok((vf, ppep_regress::stats::mean(&errors)))
    })
    .into_iter()
    .collect::<Result<Vec<_>>>()?;
    let mean = ppep_regress::stats::mean(&per_vf.iter().map(|(_, e)| *e).collect::<Vec<_>>());
    Ok(IdleAccuracyResult { per_vf, mean })
}

/// Prints the §IV-A numbers (paper: 2/3/4/3/3% for VF5..VF1).
pub fn print(result: &IdleAccuracyResult) {
    println!("== §IV-A: chip idle power model AAE per VF state ==");
    for (vf, e) in result.per_vf.iter().rev() {
        println!("{vf}: {:.1}%", e * 100.0);
    }
    println!("mean: {:.1}%", result.mean * 100.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{Scale, DEFAULT_SEED};

    #[test]
    fn idle_model_holds_on_fresh_traces() {
        let ctx = Context::fx8320(Scale::Quick, DEFAULT_SEED);
        let r = run(&ctx).unwrap();
        assert_eq!(r.per_vf.len(), 5);
        // Paper band is 2-4%; allow some slack for the quick budget's
        // shorter cooling traces.
        assert!(r.mean < 0.08, "idle AAE {}", r.mean);
        for (vf, e) in &r.per_vf {
            assert!(*e < 0.12, "{vf} AAE {e}");
        }
    }
}

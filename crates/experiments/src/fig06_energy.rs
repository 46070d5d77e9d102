//! Fig. 6 — next-interval energy prediction error at VF5 for the 61
//! SPEC combinations: PPEP versus Green Governors.
//!
//! Paper numbers: PPEP 3.6% average AAE at VF5 (and 3.3 / 3.7 / 4.0 /
//! 4.9% at VF4–VF1); Green Governors about 7%.

use crate::common::Context;
use ppep_core::energy::EnergyPredictor;
use ppep_rig::shard;
use ppep_types::{Result, VfStateId};
use ppep_workloads::combos::spec_combos;
use ppep_workloads::WorkloadSpec;

/// Per-combo energy prediction error at VF5.
#[derive(Debug, Clone)]
pub struct ComboEnergyError {
    /// Combination name (the Fig. 6 x-axis label).
    pub name: String,
    /// PPEP's AAE.
    pub ppep: f64,
    /// Green Governors' AAE.
    pub green_governors: f64,
}

/// The experiment's result.
#[derive(Debug, Clone)]
pub struct Fig06Result {
    /// Per-combo errors at VF5, in Fig. 6 order.
    pub combos: Vec<ComboEnergyError>,
    /// PPEP average at VF5 (paper: 3.6%).
    pub ppep_avg: f64,
    /// Green Governors average at VF5 (paper: ~7%).
    pub gg_avg: f64,
    /// PPEP average per VF state, slowest first (paper VF4..VF1:
    /// 3.3/3.7/4.0/4.9%).
    pub ppep_per_vf: Vec<(VfStateId, f64)>,
}

/// Runs the Fig. 6 study.
///
/// # Errors
///
/// Propagates training and prediction errors.
pub fn run(ctx: &Context) -> Result<Fig06Result> {
    let models = ctx.train_models()?;
    let predictor = EnergyPredictor::new(models);
    let table = ctx.rig.config().topology.vf_table().clone();
    let budget = {
        let mut b = ctx.scale.budget();
        b.record_intervals = b.record_intervals.max(10);
        b
    };
    let roster = match ctx.scale {
        crate::common::Scale::Full => spec_combos(ctx.seed),
        crate::common::Scale::Quick => spec_combos(ctx.seed)
            .into_iter()
            .step_by(7)
            .take(8)
            .collect(),
    };

    // VF5 per-combo comparison (the traces shard across workers; the
    // error evaluation stays on this thread).
    let vf5 = table.highest();
    let traces = shard::map(&roster, ctx.jobs, |spec| {
        ctx.rig.collect_run(spec, vf5, &budget)
    });
    let mut combos = Vec::new();
    for (spec, trace) in roster.iter().zip(&traces) {
        let (ppep_errs, gg_errs) = predictor.trace_errors(&trace.records)?;
        combos.push(ComboEnergyError {
            name: spec.name().to_string(),
            ppep: ppep_regress::stats::mean(&ppep_errs),
            green_governors: ppep_regress::stats::mean(&gg_errs),
        });
    }
    let ppep_avg = ppep_regress::stats::mean(&combos.iter().map(|c| c.ppep).collect::<Vec<_>>());
    let gg_avg =
        ppep_regress::stats::mean(&combos.iter().map(|c| c.green_governors).collect::<Vec<_>>());

    // PPEP per-VF averages on a reduced roster (the paper reports one
    // number per state).
    let sub_roster: Vec<_> = roster.iter().step_by(4).cloned().collect();
    let states: Vec<VfStateId> = table.states().collect();
    let cells: Vec<(VfStateId, &WorkloadSpec)> = states
        .iter()
        .flat_map(|&vf| sub_roster.iter().map(move |spec| (vf, spec)))
        .collect();
    let vf_traces = shard::map(&cells, ctx.jobs, |&(vf, spec)| {
        ctx.rig.collect_run(spec, vf, &budget)
    });
    let mut ppep_per_vf = Vec::new();
    for (row, &vf) in states.iter().enumerate() {
        let mut errs = Vec::new();
        for trace in vf_traces
            .iter()
            .skip(row * sub_roster.len())
            .take(sub_roster.len())
        {
            let (p, _) = predictor.trace_errors(&trace.records)?;
            errs.extend(p);
        }
        ppep_per_vf.push((vf, ppep_regress::stats::mean(&errs)));
    }

    Ok(Fig06Result {
        combos,
        ppep_avg,
        gg_avg,
        ppep_per_vf,
    })
}

/// Prints the Fig. 6 rows.
pub fn print(result: &Fig06Result) {
    println!("== Fig. 6: next-interval energy prediction AAE at VF5 ==");
    let rows: Vec<Vec<String>> = result
        .combos
        .iter()
        .map(|c| {
            vec![
                c.name.clone(),
                crate::common::pct(c.ppep),
                crate::common::pct(c.green_governors),
            ]
        })
        .collect();
    crate::common::print_table(&["combination", "PPEP", "Green Governors"], &rows);
    println!(
        "average: PPEP {} (paper 3.6%)  GG {} (paper ~7%)",
        crate::common::pct(result.ppep_avg),
        crate::common::pct(result.gg_avg)
    );
    println!("PPEP per VF state:");
    for (vf, e) in result.ppep_per_vf.iter().rev() {
        println!("  {vf}: {}", crate::common::pct(*e));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{Scale, DEFAULT_SEED};

    #[test]
    fn ppep_beats_green_governors() {
        let ctx = Context::fx8320(Scale::Quick, DEFAULT_SEED);
        let r = run(&ctx).unwrap();
        assert!(!r.combos.is_empty());
        assert!(
            r.ppep_avg < r.gg_avg,
            "PPEP {} must beat GG {}",
            r.ppep_avg,
            r.gg_avg
        );
        assert!(r.ppep_avg < 0.10, "PPEP energy AAE {}", r.ppep_avg);
        assert_eq!(r.ppep_per_vf.len(), 5);
        for (vf, e) in &r.ppep_per_vf {
            assert!(*e < 0.15, "{vf}: {e}");
        }
    }
}

//! §III — accuracy of the LL-MAB online CPI predictor.
//!
//! The paper runs 52 single-threaded benchmarks at VF5 and VF2,
//! divides the counter traces into instruction-aligned segments, and
//! compares predicted versus measured cycles per segment. It reports
//! 3.4% average error predicting VF5→VF2 (SD 4.6%) and 3.0% for
//! VF2→VF5 (SD 3.2%).

use crate::common::Context;
use ppep_models::cpi::{segment_aligned_errors, CpiObservation};
use ppep_models::trainer::ComboTrace;
use ppep_pmc::EventId;
use ppep_rig::shard;
use ppep_types::{Gigahertz, Result, VfStateId};
use ppep_workloads::combos::single_threaded_52;

/// Per-benchmark CPI prediction error.
#[derive(Debug, Clone)]
pub struct BenchCpiError {
    /// Benchmark name.
    pub name: String,
    /// Mean segment error predicting high→low frequency.
    pub down_error: f64,
    /// Mean segment error predicting low→high frequency.
    pub up_error: f64,
}

/// The experiment's result.
#[derive(Debug, Clone)]
pub struct CpiAccuracyResult {
    /// Per-benchmark errors.
    pub benchmarks: Vec<BenchCpiError>,
    /// Mean / SD of the down-prediction errors.
    pub down: (f64, f64),
    /// Mean / SD of the up-prediction errors.
    pub up: (f64, f64),
}

fn trace_tuples(trace: &ComboTrace, frequency: Gigahertz) -> Vec<(f64, CpiObservation)> {
    trace
        .records
        .iter()
        .filter_map(|r| {
            let s = &r.samples[0]; // single-threaded: core 0
            let inst = s.counts.get(EventId::RetiredInstructions);
            if inst <= 0.0 {
                return None;
            }
            CpiObservation::from_sample(s, frequency)
                .ok()
                .map(|obs| (inst, obs))
        })
        .collect()
}

/// Runs the CPI-accuracy study between `hi` (VF5) and `lo` (VF2).
///
/// # Errors
///
/// Propagates segment-alignment errors for degenerate traces.
pub fn run_between(ctx: &Context, hi: VfStateId, lo: VfStateId) -> Result<CpiAccuracyResult> {
    let table = ctx.rig.config().topology.vf_table().clone();
    let f_hi = table.point(hi).frequency;
    let f_lo = table.point(lo).frequency;
    let budget = {
        let mut b = ctx.scale.budget();
        // CPI segments need longer traces than power fitting does.
        b.record_intervals = b.record_intervals.max(12) * 2;
        b
    };
    let roster = match ctx.scale {
        crate::common::Scale::Full => single_threaded_52(ctx.seed),
        crate::common::Scale::Quick => single_threaded_52(ctx.seed)
            .into_iter()
            .step_by(5)
            .take(8)
            .collect(),
    };

    // One cell per benchmark: both runs, reduced to its errors.
    let cells = shard::map(&roster, ctx.jobs, |spec| {
        let hi_trace = ctx.rig.collect_run(spec, hi, &budget);
        let lo_trace = ctx.rig.collect_run(spec, lo, &budget);
        let hi_tuples = trace_tuples(&hi_trace, f_hi);
        let lo_tuples = trace_tuples(&lo_trace, f_lo);
        if hi_tuples.len() < 2 || lo_tuples.len() < 2 {
            return Ok(None); // a short benchmark finished during warm-up
        }
        // Segment length: a few intervals' worth of the slower run.
        let seg = lo_tuples.iter().map(|(n, _)| n).sum::<f64>() / lo_tuples.len() as f64;
        let down = segment_aligned_errors(&hi_tuples, &lo_tuples, f_lo, seg)?;
        let up = segment_aligned_errors(&lo_tuples, &hi_tuples, f_hi, seg)?;
        Ok(Some(BenchCpiError {
            name: spec.name().to_string(),
            down_error: ppep_regress::stats::mean(&down),
            up_error: ppep_regress::stats::mean(&up),
        }))
    });
    let mut benchmarks = Vec::new();
    for cell in cells {
        benchmarks.extend(cell?);
    }

    let downs: Vec<f64> = benchmarks.iter().map(|b| b.down_error).collect();
    let ups: Vec<f64> = benchmarks.iter().map(|b| b.up_error).collect();
    Ok(CpiAccuracyResult {
        down: (
            ppep_regress::stats::mean(&downs),
            ppep_regress::stats::std_dev(&downs),
        ),
        up: (
            ppep_regress::stats::mean(&ups),
            ppep_regress::stats::std_dev(&ups),
        ),
        benchmarks,
    })
}

/// Runs with the paper's VF5↔VF2 pairing.
///
/// # Errors
///
/// See [`run_between`].
pub fn run(ctx: &Context) -> Result<CpiAccuracyResult> {
    let table = ctx.rig.config().topology.vf_table().clone();
    let vf5 = table.highest();
    let vf2 = table.state(1)?;
    run_between(ctx, vf5, vf2)
}

/// Prints the §III numbers.
pub fn print(result: &CpiAccuracyResult) {
    println!("== §III: LL-MAB CPI predictor accuracy (paper: 3.4%/3.0%, SD 4.6%/3.2%) ==");
    println!(
        "VF5 -> VF2: mean {:.1}%  SD {:.1}%",
        result.down.0 * 100.0,
        result.down.1 * 100.0
    );
    println!(
        "VF2 -> VF5: mean {:.1}%  SD {:.1}%",
        result.up.0 * 100.0,
        result.up.1 * 100.0
    );
    let rows: Vec<Vec<String>> = result
        .benchmarks
        .iter()
        .map(|b| {
            vec![
                b.name.clone(),
                format!("{:.2}%", b.down_error * 100.0),
                format!("{:.2}%", b.up_error * 100.0),
            ]
        })
        .collect();
    crate::common::print_table(&["benchmark", "VF5->VF2", "VF2->VF5"], &rows);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{Scale, DEFAULT_SEED};

    #[test]
    fn cpi_predictor_is_accurate_in_both_directions() {
        let ctx = Context::fx8320(Scale::Quick, DEFAULT_SEED);
        let r = run(&ctx).unwrap();
        assert!(!r.benchmarks.is_empty());
        // The paper reports ~3%; the simulated substrate (multiplexed
        // counters + phase noise) should stay in the same regime.
        assert!(r.down.0 < 0.10, "down error {}", r.down.0);
        assert!(r.up.0 < 0.10, "up error {}", r.up.0);
        for b in &r.benchmarks {
            assert!(b.down_error.is_finite() && b.down_error >= 0.0);
        }
    }
}

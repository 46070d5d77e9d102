//! §IV-C1 — the two invariances behind the hardware-event predictor.
//!
//! * **Observation 1**: per-instruction counts of E1–E8 are
//!   VF-invariant. The paper measures VF5↔VF2 differences of
//!   0.6–5.0% per event.
//! * **Observation 2**: `CPI − DispatchStalls/inst` is VF-invariant;
//!   the paper measures a 1.7% gap difference.

use crate::common::Context;
use ppep_models::trainer::ComboTrace;
use ppep_pmc::events::EventId;
use ppep_rig::shard;
use ppep_types::Result;
use ppep_workloads::combos::single_threaded_52;

/// The eight core-private events of Observation 1.
pub const OBS1_EVENTS: [EventId; 8] = [
    EventId::RetiredUops,
    EventId::FpuPipeAssignment,
    EventId::InstructionCacheFetches,
    EventId::DataCacheAccesses,
    EventId::RequestsToL2,
    EventId::RetiredBranches,
    EventId::RetiredMispredictedBranches,
    EventId::L2CacheMisses,
];

/// The experiment's result.
#[derive(Debug, Clone)]
pub struct ObservationsResult {
    /// Mean relative VF5↔VF2 difference of per-instruction counts,
    /// one entry per Observation-1 event.
    pub obs1_deltas: Vec<(EventId, f64)>,
    /// Mean relative difference of the `CPI − DSPI` gap.
    pub obs2_delta: f64,
    /// Benchmarks measured.
    pub benchmark_count: usize,
}

fn mean_per_inst(trace: &ComboTrace, event: EventId) -> Option<f64> {
    let mut total_event = 0.0;
    let mut total_inst = 0.0;
    for r in &trace.records {
        let counts = &r.samples[0].counts;
        total_event += counts.get(event);
        total_inst += counts.get(EventId::RetiredInstructions);
    }
    (total_inst > 0.0).then_some(total_event / total_inst)
}

fn mean_gap(trace: &ComboTrace) -> Option<f64> {
    let mut gaps = Vec::new();
    for r in &trace.records {
        let counts = &r.samples[0].counts;
        let (Some(cpi), Some(dspi)) = (counts.cpi(), counts.dispatch_stalls_per_inst()) else {
            continue;
        };
        gaps.push(cpi - dspi);
    }
    (!gaps.is_empty()).then(|| ppep_regress::stats::mean(&gaps))
}

/// `|a − b| / a`, when both values exist and `a` is positive.
fn relative_delta(a: Option<f64>, b: Option<f64>) -> Option<f64> {
    match (a, b) {
        (Some(a), Some(b)) if a > 0.0 => Some((a - b).abs() / a),
        _ => None,
    }
}

/// Runs the observation study (VF5 vs. VF2, as in the paper).
///
/// # Errors
///
/// Returns an error when no benchmark produced usable traces.
pub fn run(ctx: &Context) -> Result<ObservationsResult> {
    let table = ctx.rig.config().topology.vf_table().clone();
    let vf5 = table.highest();
    let vf2 = table.state(1)?;
    let budget = ctx.scale.budget();
    let roster = match ctx.scale {
        crate::common::Scale::Full => single_threaded_52(ctx.seed),
        crate::common::Scale::Quick => single_threaded_52(ctx.seed)
            .into_iter()
            .step_by(5)
            .take(8)
            .collect(),
    };

    // One cell per benchmark: both runs, reduced to its deltas.
    let cells = shard::map(&roster, ctx.jobs, |spec| {
        let hi = ctx.rig.collect_run(spec, vf5, &budget);
        let lo = ctx.rig.collect_run(spec, vf2, &budget);
        let event_deltas = OBS1_EVENTS
            .map(|event| relative_delta(mean_per_inst(&hi, event), mean_per_inst(&lo, event)));
        (event_deltas, relative_delta(mean_gap(&hi), mean_gap(&lo)))
    });
    let mut per_event_deltas: Vec<Vec<f64>> = vec![Vec::new(); OBS1_EVENTS.len()];
    let mut gap_deltas = Vec::new();
    for (event_deltas, gap_delta) in cells {
        for (deltas, delta) in per_event_deltas.iter_mut().zip(event_deltas) {
            deltas.extend(delta);
        }
        gap_deltas.extend(gap_delta);
    }
    if gap_deltas.is_empty() {
        return Err(ppep_types::Error::InvalidInput(
            "no benchmark produced usable traces".into(),
        ));
    }
    Ok(ObservationsResult {
        obs1_deltas: OBS1_EVENTS
            .iter()
            .zip(&per_event_deltas)
            .map(|(e, d)| (*e, ppep_regress::stats::mean(d)))
            .collect(),
        obs2_delta: ppep_regress::stats::mean(&gap_deltas),
        benchmark_count: roster.len(),
    })
}

/// Prints the §IV-C1 numbers (paper: 0.6–5.0% for Obs. 1; 1.7% for
/// Obs. 2).
pub fn print(result: &ObservationsResult) {
    println!(
        "== §IV-C1: VF5 vs VF2 invariances over {} benchmarks ==",
        result.benchmark_count
    );
    println!("Observation 1 — per-instruction event deltas:");
    for (e, d) in &result.obs1_deltas {
        println!("  E{} {:<42}: {:.2}%", e.paper_id(), e.name(), d * 100.0);
    }
    println!(
        "Observation 2 — (CPI − DispatchStalls/inst) gap delta: {:.2}%",
        result.obs2_delta * 100.0
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{Scale, DEFAULT_SEED};

    #[test]
    fn invariances_hold_on_the_simulated_chip() {
        let ctx = Context::fx8320(Scale::Quick, DEFAULT_SEED);
        let r = run(&ctx).unwrap();
        assert_eq!(r.obs1_deltas.len(), 8);
        for (e, d) in &r.obs1_deltas {
            // Paper band: 0.6%..5.0%. Multiplexing and jitter keep the
            // deltas non-zero but small.
            assert!(*d < 0.09, "Obs.1 broken for {e}: {d}");
        }
        assert!(r.obs2_delta < 0.09, "Obs.2 delta {}", r.obs2_delta);
    }
}

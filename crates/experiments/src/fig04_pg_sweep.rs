//! Fig. 4 — chip power with power gating disabled and enabled, as the
//! number of busy CUs sweeps 0–4, per VF state.
//!
//! The paper uses this sweep to decompose idle power into
//! `Pidle(CU)`, `Pidle(NB)`, and `Pidle(Base)` (§IV-D).

use crate::common::Context;
use ppep_models::pg::{PgIdleModel, PgSweepPoint};
use ppep_types::{Result, VfStateId};

/// The experiment's result.
#[derive(Debug, Clone)]
pub struct Fig04Result {
    /// The raw sweep measurements (both gating settings).
    pub sweep: Vec<PgSweepPoint>,
    /// The fitted decomposition.
    pub model: PgIdleModel,
    /// Chip power normalisation base (max of the sweep), watts.
    pub peak_w: f64,
}

/// Runs the Fig. 4 sweep and fits the PG model.
///
/// # Errors
///
/// Propagates fitting errors.
pub fn run(ctx: &Context) -> Result<Fig04Result> {
    let budget = ctx.scale.budget();
    let sweep = ctx.rig.collect_pg_sweep(&budget)?;
    let model = PgIdleModel::fit(&sweep, ctx.rig.config().topology.cu_count())?;
    let peak_w = sweep.iter().map(|p| p.power.as_watts()).fold(0.0, f64::max);
    Ok(Fig04Result {
        sweep,
        model,
        peak_w,
    })
}

/// Per-VF decomposition row for printing.
fn decomposition_rows(result: &Fig04Result, vfs: &[VfStateId]) -> Vec<Vec<String>> {
    vfs.iter()
        .map(|&vf| {
            vec![
                vf.to_string(),
                result
                    .model
                    .pidle_cu(vf)
                    .map(crate::common::w)
                    .unwrap_or_else(|_| "n/a".into()),
                result
                    .model
                    .pidle_nb(vf)
                    .map(crate::common::w)
                    .unwrap_or_else(|_| "n/a".into()),
            ]
        })
        .collect()
}

/// Prints the sweep and decomposition.
pub fn print(result: &Fig04Result, table: &ppep_types::VfTable) {
    println!("== Fig. 4: chip power vs busy CUs, PG disabled/enabled ==");
    let rows: Vec<Vec<String>> = result
        .sweep
        .iter()
        .map(|p| {
            vec![
                p.vf.to_string(),
                p.busy_cus.to_string(),
                if p.pg_enabled {
                    "on".into()
                } else {
                    "off".into()
                },
                format!("{:.3}", p.power.as_watts() / result.peak_w),
                crate::common::w(p.power),
            ]
        })
        .collect();
    crate::common::print_table(&["VF", "busy CUs", "PG", "norm", "power"], &rows);
    println!();
    println!(
        "fitted decomposition (Pidle(Base) = {}):",
        crate::common::w(result.model.pidle_base())
    );
    let vfs: Vec<VfStateId> = table.states().collect();
    crate::common::print_table(
        &["VF", "Pidle(CU)", "Pidle(NB)"],
        &decomposition_rows(result, &vfs),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{Scale, DEFAULT_SEED};

    #[test]
    fn fig4_shape_matches_paper() {
        let ctx = Context::fx8320(Scale::Quick, DEFAULT_SEED);
        let r = run(&ctx).unwrap();
        let table = ctx.rig.config().topology.vf_table().clone();
        // 5 VF × 5 busy counts × 2 gating settings.
        assert_eq!(r.sweep.len(), 50);
        // Decomposed components are positive and ordered: CU idle at
        // VF5 exceeds CU idle at VF1.
        let cu5 = r.model.pidle_cu(table.highest()).unwrap().as_watts();
        let cu1 = r.model.pidle_cu(table.lowest()).unwrap().as_watts();
        assert!(cu5 > cu1, "CU idle: VF5 {cu5} vs VF1 {cu1}");
        assert!(r.model.pidle_nb(table.highest()).unwrap().as_watts() > 1.0);
        assert!(r.model.pidle_base().as_watts() > 0.5);
        // With everything busy the two gating settings agree.
        let full_off = r
            .sweep
            .iter()
            .find(|p| p.vf == table.highest() && p.busy_cus == 4 && !p.pg_enabled)
            .unwrap()
            .power
            .as_watts();
        let full_on = r
            .sweep
            .iter()
            .find(|p| p.vf == table.highest() && p.busy_cus == 4 && p.pg_enabled)
            .unwrap()
            .power
            .as_watts();
        assert!((full_off - full_on).abs() / full_off < 0.05);
    }
}

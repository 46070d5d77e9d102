//! The Green Governors baseline (Spiliopoulos et al., IGCC 2011).
//!
//! The paper compares PPEP's energy prediction against Green
//! Governors (Fig. 6), whose power model is *theoretical*: dynamic
//! power follows `C_eff · V² · f` with the effective capacitance
//! derived from the processor's dynamic activity, static power comes
//! from a fixed per-VF table (no temperature term), and — crucially —
//! the NB's energy contribution is not modelled separately (§VI).
//!
//! We implement it faithfully to that description: one activity
//! regressor (instruction throughput) scaled by `V²f`, a per-VF static
//! table measured once at a reference temperature, and no NB events.
//! Both of its error sources relative to PPEP are therefore
//! structural: leakage drifts with temperature unmodelled, and
//! NB-heavy phases change power without changing `IPS · V² f`
//! proportionally.

use ppep_regress::LinearRegression;
use ppep_types::{Error, Result, VfStateId, VfTable, Watts};

/// One training observation for the baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GgSample {
    /// Chip-wide instructions per second.
    pub ips: f64,
    /// The VF state the sample ran at.
    pub vf: VfStateId,
    /// Measured chip power.
    pub power: Watts,
}

/// The fitted Green Governors model.
#[derive(Debug, Clone, PartialEq)]
pub struct GreenGovernors {
    /// Static power per VF state index (fixed table, no temperature).
    static_table: Vec<Watts>,
    /// Effective-capacitance weight: watts per giga-instruction
    /// activity unit (`IPS·10⁻⁹ · V² · f`).
    weight: f64,
}

impl GreenGovernors {
    fn activity(ips: f64, vf: VfStateId, table: &VfTable) -> f64 {
        let p = table.point(vf);
        ips * 1e-9 * p.voltage.as_volts().powi(2) * p.frequency.as_ghz()
    }

    /// Fits the baseline: the static table is supplied from one-off
    /// idle measurements per VF state (the fixed table Eq. 2 is
    /// designed to avoid); the activity weight comes from regressing
    /// `P − Pstatic` on `IPS · V² · f`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] when the static table does not
    /// cover the VF ladder or there are no samples, and regression
    /// errors for degenerate data.
    pub fn fit(static_table: Vec<Watts>, samples: &[GgSample], table: &VfTable) -> Result<Self> {
        if static_table.len() != table.len() {
            return Err(Error::InvalidInput(format!(
                "static table has {} entries for a {}-state ladder",
                static_table.len(),
                table.len()
            )));
        }
        if samples.is_empty() {
            return Err(Error::InvalidInput("GG needs training samples".into()));
        }
        let mut xs = Vec::with_capacity(samples.len());
        let mut ys = Vec::with_capacity(samples.len());
        for (i, s) in samples.iter().enumerate() {
            let Some(stat) = static_table.get(s.vf.index()) else {
                return Err(Error::InvalidInput(format!(
                    "sample {i} has unknown VF state"
                )));
            };
            let dyn_w = s.power.as_watts() - stat.as_watts();
            if !dyn_w.is_finite() || !s.ips.is_finite() {
                return Err(Error::InvalidInput(format!("non-finite sample {i}")));
            }
            xs.push(vec![Self::activity(s.ips, s.vf, table)]);
            ys.push(dyn_w);
        }
        let fit = LinearRegression::fit_nonnegative(&xs, &ys, false, 1e-9)?;
        let &[weight] = fit.coefficients() else {
            return Err(Error::Numerical(
                "GG activity fit returned no weight".into(),
            ));
        };
        Ok(Self {
            static_table,
            weight,
        })
    }

    /// Builds a baseline from known parts.
    pub fn from_parts(static_table: Vec<Watts>, weight: f64) -> Self {
        Self {
            static_table,
            weight,
        }
    }

    /// Estimated chip power at a VF state given chip-wide instruction
    /// throughput.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotTrained`] for a VF index outside the static
    /// table and [`Error::NonFinite`] when the projection is NaN/∞.
    pub fn estimate_power(&self, ips: f64, vf: VfStateId, table: &VfTable) -> Result<Watts> {
        let stat = self
            .static_table
            .get(vf.index())
            .ok_or_else(|| Error::NotTrained(format!("VF {vf} missing from GG static table")))?;
        let dynamic = self.weight * Self::activity(ips, vf, table);
        (*stat + Watts::new(dynamic)).finite("GG chip power")
    }

    /// Predicted chip power at another VF state: GG assumes throughput
    /// scales proportionally with frequency (no leading-loads model).
    ///
    /// # Errors
    ///
    /// Propagates [`estimate_power`](Self::estimate_power) errors.
    pub fn predict_power_across(
        &self,
        ips_now: f64,
        from: VfStateId,
        to: VfStateId,
        table: &VfTable,
    ) -> Result<Watts> {
        let scale = table.frequency_ratio(from, to);
        self.estimate_power(ips_now * scale, to, table)
    }

    /// The activity weight (effective capacitance in model units).
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// The static table.
    pub fn static_table(&self) -> &[Watts] {
        &self.static_table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> VfTable {
        VfTable::fx8320()
    }

    fn static_watts() -> Vec<Watts> {
        vec![
            Watts::new(20.0),
            Watts::new(23.0),
            Watts::new(27.0),
            Watts::new(31.0),
            Watts::new(35.0),
        ]
    }

    fn samples() -> Vec<GgSample> {
        // Truth: P = static + 2.0 · IPS·1e-9·V²·f
        let t = table();
        let mut out = Vec::new();
        for (id, point) in t.iter() {
            for j in 1..6 {
                let ips = 1.0e9 * j as f64;
                let act = ips * 1e-9 * point.voltage.as_volts().powi(2) * point.frequency.as_ghz();
                out.push(GgSample {
                    ips,
                    vf: id,
                    power: static_watts()[id.index()] + Watts::new(2.0 * act),
                });
            }
        }
        out
    }

    #[test]
    fn recovers_capacitance_weight() {
        let gg = GreenGovernors::fit(static_watts(), &samples(), &table()).unwrap();
        assert!((gg.weight() - 2.0).abs() < 1e-6, "weight {}", gg.weight());
        assert_eq!(gg.static_table().len(), 5);
    }

    #[test]
    fn estimate_composes_static_and_dynamic() {
        let gg = GreenGovernors::fit(static_watts(), &samples(), &table()).unwrap();
        let t = table();
        let vf5 = t.highest();
        let p = gg.estimate_power(2.0e9, vf5, &t).unwrap().as_watts();
        let expect = 35.0 + 2.0 * (2.0 * 1.32_f64.powi(2) * 3.5);
        assert!((p - expect).abs() < 1e-6, "{p} vs {expect}");
    }

    #[test]
    fn cross_vf_assumes_linear_throughput_scaling() {
        let gg = GreenGovernors::fit(static_watts(), &samples(), &table()).unwrap();
        let t = table();
        let p = gg
            .predict_power_across(3.5e9, t.highest(), t.lowest(), &t)
            .unwrap()
            .as_watts();
        // GG scales IPS by the f-ratio: 3.5e9 · (1.4/3.5) = 1.4e9.
        let expect = 20.0 + 2.0 * (1.4 * 0.888_f64.powi(2) * 1.4);
        assert!((p - expect).abs() < 1e-6, "{p} vs {expect}");
    }

    #[test]
    fn gg_cannot_separate_nb_power() {
        // Two phases with identical IPS but different NB activity get
        // the same GG estimate — the structural blind spot the paper
        // exploits in Fig. 6.
        let gg = GreenGovernors::fit(static_watts(), &samples(), &table()).unwrap();
        let t = table();
        let a = gg.estimate_power(1.0e9, t.highest(), &t).unwrap();
        let b = gg.estimate_power(1.0e9, t.highest(), &t).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fit_validation() {
        assert!(GreenGovernors::fit(vec![], &samples(), &table()).is_err());
        assert!(GreenGovernors::fit(static_watts(), &[], &table()).is_err());
        // Static table shorter than the ladder.
        assert!(GreenGovernors::fit(vec![Watts::new(1.0)], &samples(), &table()).is_err());
        // Non-finite sample.
        let mut bad = samples();
        bad[0].ips = f64::NAN;
        assert!(GreenGovernors::fit(static_watts(), &bad, &table()).is_err());
    }

    #[test]
    fn from_parts_round_trip() {
        let gg = GreenGovernors::from_parts(static_watts(), 1.5);
        assert_eq!(gg.weight(), 1.5);
        let p = gg.estimate_power(0.0, table().lowest(), &table()).unwrap();
        assert_eq!(p, Watts::new(20.0));
    }
}

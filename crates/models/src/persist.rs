//! Saving and loading trained model bundles.
//!
//! The paper's workflow trains once per processor ("a one-time,
//! offline effort", §IV-B1) and then runs the models forever without
//! sensors or retraining. That only works if the fitted coefficients
//! can be stored. This module serialises a [`TrainedModels`] bundle to
//! a self-describing, line-oriented text format (one `key = values`
//! entry per line, `#` comments) and reads it back exactly.
//!
//! The format is deliberately plain text: a firmware or kernel
//! implementation would bake these constants in, and a human should be
//! able to diff two calibrations.

use crate::chip_power::ChipPowerModel;
use crate::dynamic::{DynamicPowerModel, DYN_EVENT_COUNT};
use crate::green_governors::GreenGovernors;
use crate::idle::IdlePowerModel;
use crate::pg::{PgIdleEntry, PgIdleModel};
use crate::trainer::TrainedModels;
use ppep_regress::polyfit::Polynomial;
use ppep_types::{Error, Result, Topology, VfPoint, VfTable, Volts, Watts};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Format version written to / required from the header.
pub const FORMAT_VERSION: u32 = 1;

/// Serialises a trained bundle to the text format.
///
/// ```no_run
/// use ppep_rig::TrainingRig;
/// use ppep_models::persist;
///
/// # fn main() -> ppep_types::Result<()> {
/// let models = TrainingRig::fx8320(42).train_quick()?;
/// let text = persist::to_string(&models);
/// std::fs::write("fx8320.ppep", &text).expect("writable cwd");
/// let restored = persist::from_string(&text)?;
/// assert_eq!(restored.alpha(), models.alpha());
/// # Ok(())
/// # }
/// ```
#[expect(
    clippy::let_underscore_must_use,
    reason = "fmt::Write for String is infallible"
)]
pub fn to_string(models: &TrainedModels) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# PPEP trained model bundle");
    let _ = writeln!(out, "version = {FORMAT_VERSION}");
    let _ = writeln!(out, "platform = {}", models.topology().name());
    let _ = writeln!(out, "cu_count = {}", models.topology().cu_count());
    let _ = writeln!(out, "cores_per_cu = {}", models.topology().cores_per_cu());
    let _ = writeln!(
        out,
        "power_gating = {}",
        models.topology().supports_power_gating()
    );
    let _ = writeln!(out, "issue_width = {}", models.topology().issue_width());
    let _ = writeln!(
        out,
        "mispredict_penalty = {}",
        models.topology().mispredict_penalty_cycles()
    );

    let table = models.vf_table();
    let volts: Vec<String> = table
        .iter()
        .map(|(_, p)| format!("{}", p.voltage.as_volts()))
        .collect();
    let ghz: Vec<String> = table
        .iter()
        .map(|(_, p)| format!("{}", p.frequency.as_ghz()))
        .collect();
    let _ = writeln!(out, "vf_voltages = {}", volts.join(" "));
    let _ = writeln!(out, "vf_frequencies = {}", ghz.join(" "));

    let _ = writeln!(out, "alpha = {}", models.alpha());
    let _ = writeln!(
        out,
        "reference_voltage = {}",
        models.dynamic_model().reference_voltage().as_volts()
    );
    let weights: Vec<String> = models
        .dynamic_model()
        .weights()
        .iter()
        .map(|w| format!("{w:e}"))
        .collect();
    let _ = writeln!(out, "dyn_weights = {}", weights.join(" "));

    let idle = models.idle_model();
    let w1: Vec<String> = idle
        .w1()
        .coefficients()
        .iter()
        .map(|c| format!("{c:e}"))
        .collect();
    let w0: Vec<String> = idle
        .w0()
        .coefficients()
        .iter()
        .map(|c| format!("{c:e}"))
        .collect();
    let _ = writeln!(out, "idle_w1 = {}", w1.join(" "));
    let _ = writeln!(out, "idle_w0 = {}", w0.join(" "));

    let gg = models.green_governors();
    let st: Vec<String> = gg
        .static_table()
        .iter()
        .map(|w| format!("{}", w.as_watts()))
        .collect();
    let _ = writeln!(out, "gg_static = {}", st.join(" "));
    let _ = writeln!(out, "gg_weight = {:e}", gg.weight());

    // A PG model fitted from a partial sweep cannot be serialised
    // per-state; omit the section rather than panicking in the
    // per-state accessors.
    if let Some(pg) = models
        .chip_power()
        .pg_model()
        .filter(|pg| pg.covers_ladder(table.len()))
    {
        let cu: Vec<String> = table
            .states()
            .map(|vf| format!("{}", pg.pidle_cu(vf).map_or(0.0, |w| w.as_watts())))
            .collect();
        let nb: Vec<String> = table
            .states()
            .map(|vf| format!("{}", pg.pidle_nb(vf).map_or(0.0, |w| w.as_watts())))
            .collect();
        let _ = writeln!(out, "pg_cu = {}", cu.join(" "));
        let _ = writeln!(out, "pg_nb = {}", nb.join(" "));
        let _ = writeln!(out, "pg_base = {}", pg.pidle_base().as_watts());
        let _ = writeln!(out, "pg_cu_count = {}", pg.cu_count());
    }
    out
}

fn parse_map(text: &str) -> Result<BTreeMap<String, String>> {
    let mut map = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(Error::InvalidInput(format!(
                "line {}: expected `key = value`, got {line:?}",
                lineno + 1
            )));
        };
        map.insert(key.trim().to_string(), value.trim().to_string());
    }
    Ok(map)
}

fn req<'m>(map: &'m BTreeMap<String, String>, key: &str) -> Result<&'m str> {
    map.get(key)
        .map(String::as_str)
        .ok_or_else(|| Error::InvalidInput(format!("missing key {key:?}")))
}

fn parse_f64(s: &str, key: &str) -> Result<f64> {
    s.parse()
        .map_err(|_| Error::InvalidInput(format!("{key}: not a number: {s:?}")))
}

fn parse_vec(s: &str, key: &str) -> Result<Vec<f64>> {
    s.split_whitespace().map(|t| parse_f64(t, key)).collect()
}

/// Deserialises a bundle from the text format.
///
/// # Errors
///
/// Returns [`Error::InvalidInput`] for malformed text, missing keys,
/// wrong version, or inconsistent lengths.
pub fn from_string(text: &str) -> Result<TrainedModels> {
    let map = parse_map(text)?;
    let version: u32 = req(&map, "version")?
        .parse()
        .map_err(|_| Error::InvalidInput("version: not an integer".into()))?;
    if version != FORMAT_VERSION {
        return Err(Error::InvalidInput(format!(
            "unsupported bundle version {version} (this build reads {FORMAT_VERSION})"
        )));
    }

    let volts = parse_vec(req(&map, "vf_voltages")?, "vf_voltages")?;
    let freqs = parse_vec(req(&map, "vf_frequencies")?, "vf_frequencies")?;
    if volts.len() != freqs.len() {
        return Err(Error::InvalidInput(
            "vf_voltages/vf_frequencies length mismatch".into(),
        ));
    }
    let points: Vec<VfPoint> = volts
        .iter()
        .zip(&freqs)
        .map(|(&v, &f)| VfPoint::new(Volts::new(v), ppep_types::Gigahertz::new(f)))
        .collect();
    let table = VfTable::new(points)?;

    let topology = Topology::new(
        req(&map, "platform")?,
        req(&map, "cu_count")?
            .parse()
            .map_err(|_| Error::InvalidInput("cu_count: not an integer".into()))?,
        req(&map, "cores_per_cu")?
            .parse()
            .map_err(|_| Error::InvalidInput("cores_per_cu: not an integer".into()))?,
        table.clone(),
        req(&map, "power_gating")? == "true",
        parse_f64(req(&map, "issue_width")?, "issue_width")?,
        parse_f64(req(&map, "mispredict_penalty")?, "mispredict_penalty")?,
    )?;

    let alpha = parse_f64(req(&map, "alpha")?, "alpha")?;
    let reference_voltage = Volts::new(parse_f64(
        req(&map, "reference_voltage")?,
        "reference_voltage",
    )?);
    let weights_vec = parse_vec(req(&map, "dyn_weights")?, "dyn_weights")?;
    if weights_vec.len() != DYN_EVENT_COUNT {
        return Err(Error::InvalidInput(format!(
            "dyn_weights: expected {DYN_EVENT_COUNT} entries, got {}",
            weights_vec.len()
        )));
    }
    let mut weights = [0.0; DYN_EVENT_COUNT];
    weights.copy_from_slice(&weights_vec);
    let dynamic = DynamicPowerModel::from_parts(weights, alpha, reference_voltage);

    let idle = IdlePowerModel::from_polynomials(
        Polynomial::new(parse_vec(req(&map, "idle_w1")?, "idle_w1")?)?,
        Polynomial::new(parse_vec(req(&map, "idle_w0")?, "idle_w0")?)?,
    );

    let gg_static: Vec<Watts> = parse_vec(req(&map, "gg_static")?, "gg_static")?
        .into_iter()
        .map(Watts::new)
        .collect();
    if gg_static.len() != table.len() {
        return Err(Error::InvalidInput(
            "gg_static length must match the VF ladder".into(),
        ));
    }
    let green_governors =
        GreenGovernors::from_parts(gg_static, parse_f64(req(&map, "gg_weight")?, "gg_weight")?);

    let mut chip_power = ChipPowerModel::new(idle, dynamic);
    if map.contains_key("pg_cu") {
        let cu = parse_vec(req(&map, "pg_cu")?, "pg_cu")?;
        let nb = parse_vec(req(&map, "pg_nb")?, "pg_nb")?;
        if cu.len() != table.len() || nb.len() != table.len() {
            return Err(Error::InvalidInput(
                "pg_cu/pg_nb length must match the VF ladder".into(),
            ));
        }
        let entries: Vec<PgIdleEntry> = cu
            .into_iter()
            .zip(nb)
            .map(|(c, n)| PgIdleEntry {
                pidle_cu: Watts::new(c),
                pidle_nb: Watts::new(n),
            })
            .collect();
        let base = Watts::new(parse_f64(req(&map, "pg_base")?, "pg_base")?);
        let cu_count: usize = req(&map, "pg_cu_count")?
            .parse()
            .map_err(|_| Error::InvalidInput("pg_cu_count: not an integer".into()))?;
        chip_power = chip_power.with_pg(PgIdleModel::from_parts(entries, base, cu_count));
    }

    Ok(TrainedModels::from_parts(
        chip_power,
        green_governors,
        alpha,
        table,
        topology,
    ))
}

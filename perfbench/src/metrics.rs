//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` lists the same names and units; a test below keeps
//! the two in step.

use crate::check::Checks;
use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, measured by every workload in an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_us_p50", "us"),
    ("latency_us_tail", "us"),
    ("completed_pct", "%"),
];

/// Per-layer metrics of a traced run. A layer the workload does not
/// call reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("traced.throughput_per_s", "1/s"),
    ("host.probe_us_p50", "us"),
    ("sim.step_us_p50", "us"),
    ("sim.step_us_p99", "us"),
    ("sim.apply_us_p50", "us"),
    ("sim.share_pct", "%"),
    ("core.project_us_p50", "us"),
    ("core.project_us_p99", "us"),
    ("dvfs.decide_us_p50", "us"),
    ("dvfs.decide_us_p99", "us"),
    ("dvfs.vf_transitions", "count"),
    ("online.intervals", "count"),
    ("online.cap_violation_pct", "%"),
    ("online.power_err_pct", "%"),
    ("online.transient_errors", "count"),
    ("rig.train_s", "s"),
    ("experiments.fig1_s", "s"),
    ("experiments.cpi_s", "s"),
    ("experiments.idle_s", "s"),
    ("experiments.obs_s", "s"),
    ("experiments.store_s", "s"),
    ("experiments.store_cells", "count"),
    ("experiments.store_speedup", "x"),
    ("experiments.fig2_s", "s"),
    ("experiments.fig3_s", "s"),
    ("experiments.fig4_s", "s"),
    ("experiments.fig6_s", "s"),
    ("experiments.fig7_s", "s"),
    ("experiments.fig8_9_s", "s"),
    ("experiments.fig10_s", "s"),
    ("experiments.fig11_s", "s"),
    ("experiments.phenom_s", "s"),
    ("experiments.ablations_s", "s"),
    ("experiments.resilience_s", "s"),
    ("experiments.fig2_chip_err_pct", "%"),
    ("experiments.cpi_err_pct", "%"),
    ("experiments.fig7_adherence_pct", "%"),
    ("telemetry.submit_encode_us_p50", "us"),
    ("telemetry.submit_decode_us_p50", "us"),
    ("telemetry.submit_decode_us_p99", "us"),
    ("telemetry.reply_encode_us_p50", "us"),
    ("telemetry.reply_decode_us_p50", "us"),
    ("telemetry.submit_frame_bytes", "B"),
    ("serve.admit_us_p50", "us"),
    ("serve.step_us_p50", "us"),
    ("serve.step_us_p99", "us"),
    ("serve.handle_us_p50", "us"),
    ("serve.handle_us_p99", "us"),
    ("serve.transport_us_p50", "us"),
    ("serve.frames", "count"),
    ("serve.replies", "count"),
    ("serve.evictions", "count"),
    ("serve.rejects", "count"),
    ("serve.errors", "count"),
    ("serve.power_err_pct", "%"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    values: BTreeMap<&'static str, f64>,
    notes: BTreeMap<&'static str, String>,
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// The output checks.
    pub checks: Checks,
}

/// The metrics a run prints.
pub fn catalogue(traced: bool) -> &'static [(&'static str, &'static str)] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

impl Outcome {
    /// Sets a metric.
    ///
    /// # Panics
    ///
    /// On a name missing from the catalogue: a bug in this benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "metric {name} is not catalogued");
        self.values.insert(name, value);
    }

    /// Sets a metric with a note for the human-readable table.
    pub fn set_noted(&mut self, name: &'static str, value: f64, note: String) {
        self.set(name, value);
        self.notes.insert(name, note);
    }

    /// The value of a metric, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Sets a metric to the median of ascending `sorted` values,
    /// noting `n`.
    pub fn set_median(&mut self, name: &'static str, sorted: &[f64]) {
        if let Some(v) = stats::median(sorted) {
            self.set_noted(name, v, format!("median of n={}", sorted.len()));
        }
    }

    /// Sets `<median>` to the median of all samples of `series`, each
    /// in the order it was taken, and `<tail>` to their
    /// [`stats::windowed_tail`], noting `n` and what the tail is.
    pub fn set_timing(&mut self, median: &'static str, tail: &'static str, series: &[Vec<f64>]) {
        let mut all = series.concat();
        all.sort_by(f64::total_cmp);
        let n = all.len();
        if let Some(v) = stats::median(&all) {
            self.set_noted(median, v, format!("n={n}"));
        }
        match stats::windowed_tail(series, stats::TAIL_WINDOW) {
            Some((p, v, 0)) => self.set_noted(tail, v, format!("p{p} of n={n}")),
            Some((p, v, windows)) => self.set_noted(
                tail,
                v,
                format!(
                    "median p{p} of {windows} windows of {}, n={n}",
                    stats::TAIL_WINDOW
                ),
            ),
            None => {}
        }
    }

    /// Sets a `_p50` / `_p99` pair of a per-layer series.
    pub fn set_layer(&mut self, p50: &'static str, p99: Option<&'static str>, sorted: &[f64]) {
        let n = sorted.len();
        if let Some(v) = stats::median(sorted) {
            self.set_noted(p50, v, format!("n={n}"));
        }
        if let (Some(name), Some(v)) = (p99, stats::percentile(sorted, 99.0)) {
            self.set_noted(name, v, format!("n={n}"));
        }
    }

    /// The result line: every per-layer metric of a traced run, else
    /// every end-to-end one. End-to-end metrics must all have been
    /// measured; a per-layer metric the workload did not touch reads 0.
    ///
    /// # Errors
    ///
    /// A missing end-to-end metric or a non-finite value.
    pub fn to_json(&self, traced: bool) -> Result<String, String> {
        let mut body = String::new();
        for (i, (name, unit)) in catalogue(traced).iter().enumerate() {
            let value = match (self.get(name), traced) {
                (Some(v), _) if v.is_finite() => v,
                (Some(v), _) => return Err(format!("metric {name} is not finite: {v}")),
                (None, false) => return Err(format!("metric {name} was not measured")),
                (None, true) => 0.0,
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                body,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.checks.ok(),
            self.attempted,
            self.failed
        ))
    }

    /// A human-readable table of the run's metrics, for standard error.
    pub fn table(&self, traced: bool) -> String {
        let mut out = String::new();
        for (name, unit) in catalogue(traced) {
            let value = self
                .get(name)
                .map_or_else(|| "-".to_string(), |v| format!("{v:.4}"));
            let note = self.notes.get(name).map_or("", String::as_str);
            let _ = writeln!(out, "{name:<34} {value:>16} {unit:<6} {note}");
        }
        let _ = writeln!(
            out,
            "attempted {} failed {} checks {}/{} passed",
            self.attempted,
            self.failed,
            self.checks.made() - self.checks.failures().len(),
            self.checks.made()
        );
        out
    }
}

/// Peak resident memory of this process, in MiB (`VmHWM`).
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let listed = json.matches("\"name\":").count();
        let workloads = json.matches("\"why\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len() + workloads);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{entry} missing from BENCHMARK.json");
        }
    }

    #[test]
    fn end_to_end_line_needs_every_metric() {
        let mut o = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        for (i, (name, _)) in END_TO_END.iter().enumerate().skip(1) {
            o.set(name, i as f64 + 0.5);
        }
        assert!(o.to_json(false).is_err());
        o.set("setup_s", 0.25);
        let line = o.to_json(false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        o.set("completed_pct", f64::NAN);
        assert!(o.to_json(false).is_err());
    }

    #[test]
    fn untouched_layers_read_zero_and_failed_checks_show() {
        let mut o = Outcome::default();
        o.set("serve.frames", 12.0);
        o.checks.same("digest", 1, 2);
        let line = o.to_json(true).unwrap();
        assert!(line.starts_with("{\"correct\": false"));
        assert!(line.contains("\"serve.frames\": {\"value\": 12, \"unit\": \"count\"}"));
        assert!(line.contains("\"sim.step_us_p50\": {\"value\": 0, \"unit\": \"us\"}"));
    }

    #[test]
    #[should_panic(expected = "not catalogued")]
    fn unknown_metrics_are_a_bug() {
        Outcome::default().set("nope", 1.0);
    }

    #[test]
    fn reads_peak_rss() {
        let mb = peak_rss_mb().unwrap();
        assert!(mb > 0.0 && mb < 1e6);
    }
}

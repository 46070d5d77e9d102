//! The `ppep-lint` binary: lints the workspace, prints rustc-style
//! diagnostics, exits nonzero on violations.
//!
//! ```text
//! cargo run -p ppep-lint                      # lint the enclosing workspace
//! cargo run -p ppep-lint -- --root /path/to/ws
//! cargo run -p ppep-lint -- --format json     # machine-readable findings on stdout
//! cargo run -p ppep-lint -- --bench-out BENCH_lint.json
//! ```
//!
//! Exit codes: `0` clean, `1` violations (or stale allowlist entries),
//! `2` usage/IO error, `3` the `--bench-out` wall-clock budget was
//! exceeded on an otherwise clean run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Exhaustive matches and bound span guards in non-test code; each
// surviving site carries `#[expect(.., reason)]` (DESIGN.md §8).
#![cfg_attr(not(test), warn(clippy::wildcard_enum_match_arm))]
#![cfg_attr(not(test), warn(clippy::let_underscore_must_use))]

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use ppep_lint::Diagnostic;

/// Wall-clock budget for a full workspace run under `--bench-out`.
/// The lint gate rides in front of every CI job, so a slow analyzer
/// is a regression in its own right.
const BENCH_BUDGET_MS: u128 = 30_000;

#[derive(PartialEq)]
enum Format {
    Human,
    Json,
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut root: Option<PathBuf> = None;
    let mut format = Format::Human;
    let mut bench_out: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--format" => match args.next().as_deref() {
                Some("json") => format = Format::Json,
                Some("human") => format = Format::Human,
                other => {
                    eprintln!("ppep-lint: --format expects `human` or `json`, got {other:?}");
                    return ExitCode::from(2);
                }
            },
            "--bench-out" => bench_out = args.next().map(PathBuf::from),
            "--help" | "-h" => {
                println!(
                    "usage: ppep-lint [--root WORKSPACE_DIR] [--format human|json] \
                     [--bench-out FILE]"
                );
                println!("rules: {}", ppep_lint::rules::ALL_RULES.join(", "));
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("ppep-lint: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }
    // `cargo run` sets CARGO_MANIFEST_DIR to crates/lint; the
    // workspace root is two levels up. Fall back to the current
    // directory for a standalone binary.
    let root = root
        .or_else(|| {
            std::env::var_os("CARGO_MANIFEST_DIR")
                .map(|d| PathBuf::from(d).join("../..").canonicalize().ok())?
        })
        .unwrap_or_else(|| PathBuf::from("."));

    let started = Instant::now();
    let report = match ppep_lint::lint_workspace(&root) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("ppep-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let wall_ms = started.elapsed().as_millis();

    if format == Format::Json {
        println!("{}", findings_json(&report.diagnostics));
    }
    for d in &report.diagnostics {
        eprintln!("{d}");
        eprintln!();
    }
    // A stale exemption is a finding too: an allowlist entry whose
    // target was renamed, fixed, or deleted must be pruned, or the
    // next violation at that (path, item) slips through silently.
    for e in &report.unused_allow {
        eprintln!(
            "error[allow/stale-entry]: allowlist entry matched nothing: \
             `{} {} {}` ({})",
            e.rules.join(","),
            e.path_suffix,
            e.item,
            e.reason
        );
        eprintln!();
    }

    if let Some(path) = &bench_out {
        let over = wall_ms > BENCH_BUDGET_MS;
        let bench = format!(
            "{{\n  \"bench\": \"lint_workspace\",\n  \"files\": {},\n  \
             \"diagnostics\": {},\n  \"wall_ms\": {},\n  \"budget_ms\": {},\n  \
             \"within_budget\": {}\n}}\n",
            report.files,
            report.diagnostics.len(),
            wall_ms,
            BENCH_BUDGET_MS,
            !over
        );
        if let Err(e) = std::fs::write(path, bench) {
            eprintln!("ppep-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        if over && report.diagnostics.is_empty() && report.unused_allow.is_empty() {
            eprintln!("ppep-lint: clean, but {wall_ms} ms exceeds the {BENCH_BUDGET_MS} ms budget");
            return ExitCode::from(3);
        }
    }

    if report.diagnostics.is_empty() && report.unused_allow.is_empty() {
        if format == Format::Human {
            println!("ppep-lint: clean ({} files analyzed)", report.files);
        }
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "ppep-lint: {} violation(s), {} stale allowlist entr{} across {} files",
            report.diagnostics.len(),
            report.unused_allow.len(),
            if report.unused_allow.len() == 1 {
                "y"
            } else {
                "ies"
            },
            report.files
        );
        ExitCode::FAILURE
    }
}

/// Renders diagnostics as a JSON array — one object per finding with
/// `rule`, `group`, `file`, `line`, `col`, `message`, and (for the
/// temporal rules) `note`. Hand-rolled like the rest of the crate:
/// no serde in an offline workspace.
fn findings_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {");
        out.push_str(&format!("\"rule\": {}, ", json_str(d.rule)));
        out.push_str(&format!("\"group\": {}, ", json_str(d.group)));
        out.push_str(&format!("\"file\": {}, ", json_str(&d.path)));
        out.push_str(&format!("\"line\": {}, ", d.line));
        out.push_str(&format!("\"col\": {}, ", d.col));
        out.push_str(&format!("\"message\": {}", json_str(&d.message)));
        if let Some(note) = &d.note {
            out.push_str(&format!(", \"note\": {}", json_str(note)));
        }
        out.push('}');
    }
    if !diags.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_specials() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("plain"), "\"plain\"");
    }

    #[test]
    fn findings_json_shape() {
        let diags = vec![Diagnostic {
            group: "L5",
            rule: "stale-projection",
            path: "crates/core/src/daemon.rs".into(),
            line: 7,
            col: 9,
            message: "projection `p` is stale here".into(),
            note: Some("invalidated by `apply(..)` at line 5".into()),
        }];
        let json = findings_json(&diags);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"rule\": \"stale-projection\""));
        assert!(json.contains("\"line\": 7"));
        assert!(json.contains("\"note\": \"invalidated by `apply(..)` at line 5\""));
        assert_eq!(findings_json(&[]), "[]");
    }
}

//! The PPEP workspace benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload repro|online|serve [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload sets up, measures for `--seconds`, checks its outputs
//! and prints one JSON object as the last line of standard output:
//! every end-to-end metric with `--trace 0`, every per-layer metric
//! with `--trace 1`. Timing is done here, around calls into the
//! crates' public functions. A failed output check prints
//! `"correct": false` and exits with code 1; a workload that cannot
//! run exits with code 2 and prints no result. `perfbench/README.md`
//! explains the workloads and metrics.

mod check;
mod host;
mod metrics;
mod online;
mod repro;
mod serve;
mod stats;

use metrics::Outcome;
use std::process::ExitCode;

/// The default workload seed.
const DEFAULT_SEED: u64 = check::PINNED_SEED;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub traced: bool,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        traced: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(opts)
}

/// Worker threads and client connections a workload may use: the
/// host's cores, at most.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Runs one workload, checking its outputs against `pins`.
pub fn run(opts: &Opts, pins: &check::Pins) -> Result<Outcome, String> {
    let outcome = match opts.workload.as_str() {
        "repro" => repro::run(opts, pins),
        "online" => online::run(opts, pins),
        "serve" => serve::run(opts, pins),
        other => return Err(format!("unknown workload {other:?}")),
    };
    outcome.map_err(|e| format!("{} workload failed: {e}", opts.workload))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: perfbench --workload repro|online|serve [--seed N] \
                 [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&opts, &check::PINS) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match outcome.to_json(opts.traced) {
        Ok(json) => {
            eprint!("{}", outcome.table(opts.traced));
            for failure in outcome.checks.failures() {
                eprintln!("CHECK FAILED: {failure}");
            }
            println!("{json}");
            if outcome.checks.ok() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_every_flag() {
        let o = parse(&args("--workload serve --seed 7 --seconds 2.5 --trace 1")).unwrap();
        assert_eq!(
            o,
            Opts {
                workload: "serve".into(),
                seed: 7,
                seconds: 2.5,
                traced: true
            }
        );
        let o = parse(&args("--workload repro")).unwrap();
        assert_eq!(o.seed, DEFAULT_SEED);
        assert!(!o.traced);
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(parse(&args("")).is_err());
        assert!(parse(&args("--workload")).is_err());
        assert!(parse(&args("--workload repro --trace 2")).is_err());
        assert!(parse(&args("--workload repro --seconds -1")).is_err());
        assert!(parse(&args("--workload repro --bogus 1")).is_err());
        assert!(run(&parse(&args("--workload nope")).unwrap(), &check::PINS).is_err());
    }
}

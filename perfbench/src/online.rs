//! `online`: PPEP's closed 200 ms control loop on one simulated,
//! PG-enabled FX-8320 running the Fig. 7 four-thread mix under the
//! Fig. 7 95 W / 40 W cap square wave, with one-step capping.
//!
//! The loop runs in episodes of [`EPISODE`] intervals, each on a fresh
//! chip. Set-up builds [`RIGS`] rigs, each a trained engine, workload
//! and chip configuration from its own seed: the run's seed and seeds
//! derived from it. Episodes take the rigs in turn, so every episode on
//! one rig does the same work and makes the same decisions, and a run
//! averages over several draws of the inputs rather than one. The untraced run measures `PpepDaemon::react` (project,
//! decide, apply) per interval; the traced run makes the four calls
//! one by one and times each. Every episode's decisions must match an
//! untraced check episode, and at the pinned seed the pinned digest.
//! Each episode and each set-up is a window of [`crate::host`]'s
//! calibration: its times are scaled to the nominal host speed.

use crate::check::{Fnv, Pins};
use crate::host::Probe;
use crate::metrics::{peak_rss_mb, Outcome};
use crate::stats::{Samples, SERIES_CAPACITY};
use crate::Opts;
use ppep_core::daemon::{DaemonStep, DvfsController, PpepDaemon};
use ppep_core::Ppep;
use ppep_dvfs::capping::OneStepCapping;
use ppep_experiments::common::{Context, Scale};
use ppep_experiments::fig07_capping::cap_schedule;
use ppep_sim::chip::{ChipSimulator, SimConfig};
use ppep_sim::SimPlatform;
use ppep_telemetry::Platform;
use ppep_types::{Result, VfStateId, Watts};
use ppep_workloads::combos::fig7_workload;
use ppep_workloads::WorkloadSpec;
use std::error::Error;
use std::time::{Duration, Instant};

/// Intervals per episode: the Fig. 7 run length.
pub const EPISODE: usize = 300;

/// Intervals between cap flips.
const CAP_PERIOD: usize = 50;

/// Set-ups timed for `setup_s`.
const SETUP_REPS: usize = 7;

/// Rigs per run. The median react time differs by up to ±10 % from one
/// seed to another; four draws per run narrow that spread by about half.
const RIGS: usize = 4;

/// The seed of rig `k`; rig 0 takes the run's seed itself.
fn rig_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

type Daemon = PpepDaemon<SimPlatform, OneStepCapping>;

/// What set-up builds: the trained engine and the workload.
struct Rig {
    ppep: Ppep,
    workload: WorkloadSpec,
    seed: u64,
}

impl Rig {
    fn new(seed: u64) -> Result<(Self, Duration)> {
        let ctx = Context::fx8320(Scale::Full, seed);
        let start = Instant::now();
        let models = ctx.train_models()?;
        let train = start.elapsed();
        let rig = Self {
            ppep: ctx.engine(models),
            workload: fig7_workload(seed),
            seed,
        };
        Ok((rig, train))
    }

    /// A daemon on a fresh chip at the start of an episode.
    fn daemon(&self) -> Daemon {
        let mut chip = ChipSimulator::new(SimConfig::fx8320_pg(self.seed));
        chip.load_workload(&self.workload);
        let controller = OneStepCapping::new(self.ppep.clone(), cap_schedule(0, CAP_PERIOD));
        PpepDaemon::new(self.ppep.clone(), SimPlatform::new(chip), controller)
    }
}

/// Per-interval counts of one or more episodes.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    decided: u64,
    transient: u64,
    loop_time: Duration,
}

fn digest_decision(digest: &mut Fnv, decision: &[VfStateId]) {
    for vf in decision {
        digest.u64(vf.index() as u64);
    }
}

/// Samples one interval, counting a transient measurement error as a
/// failed interval.
fn sample(d: &mut Daemon, tally: &mut Tally) -> Result<Option<ppep_telemetry::IntervalRecord>> {
    tally.attempted += 1;
    match d.platform_mut().sample() {
        Ok(record) => Ok(Some(record)),
        Err(e) if e.is_transient() => {
            tally.transient += 1;
            Ok(None)
        }
        Err(e) => Err(e),
    }
}

/// One untraced episode: sample, then `react` timed as one call.
/// `observe` sees each step with the cap in force.
fn episode(
    rig: &Rig,
    probe: &mut Probe,
    react: &mut Samples,
    tally: &mut Tally,
    mut observe: impl FnMut(&DaemonStep, Watts) -> Result<()>,
) -> Result<u64> {
    let mut d = rig.daemon();
    let mut digest = Fnv::new();
    let mark = react.len();
    let start = Instant::now();
    for k in 0..EPISODE {
        let cap = cap_schedule(k, CAP_PERIOD);
        d.controller_mut().set_cap(cap);
        let Some(record) = sample(&mut d, tally)? else {
            continue;
        };
        let step = react.time(|| d.react(record))?;
        tally.decided += 1;
        digest_decision(&mut digest, &step.decision);
        observe(&step, cap)?;
    }
    let elapsed = start.elapsed();
    let scale = probe.close_window();
    react.scale_since(mark, scale);
    tally.loop_time += elapsed.mul_f64(scale);
    Ok(digest.finish())
}

/// Per-call timings of traced episodes.
struct Layers {
    step: Samples,
    project: Samples,
    decide: Samples,
    apply: Samples,
    transitions: u64,
}

impl Layers {
    fn series(&mut self) -> [&mut Samples; 4] {
        [
            &mut self.step,
            &mut self.project,
            &mut self.decide,
            &mut self.apply,
        ]
    }
}

/// One traced episode: the calls `react` makes, timed one by one.
fn traced_episode(
    rig: &Rig,
    probe: &mut Probe,
    layers: &mut Layers,
    tally: &mut Tally,
) -> Result<u64> {
    let mut d = rig.daemon();
    let mut digest = Fnv::new();
    let marks = layers.series().map(|s| s.len());
    let start = Instant::now();
    for k in 0..EPISODE {
        d.controller_mut().set_cap(cap_schedule(k, CAP_PERIOD));
        let Some(record) = layers.step.time(|| sample(&mut d, tally))? else {
            continue;
        };
        let projection = layers.project.time(|| d.ppep().project(&record))?;
        let decision = layers
            .decide
            .time(|| d.controller_mut().decide(&projection))?;
        layers.apply.time(|| d.platform_mut().apply(&decision))?;
        tally.decided += 1;
        layers.transitions += projection
            .source_vf
            .iter()
            .zip(&decision)
            .filter(|(a, b)| a != b)
            .count() as u64;
        digest_decision(&mut digest, &decision);
    }
    let elapsed = start.elapsed();
    let scale = probe.close_window();
    for (series, mark) in layers.series().into_iter().zip(marks) {
        series.scale_since(mark, scale);
    }
    tally.loop_time += elapsed.mul_f64(scale);
    Ok(digest.finish())
}

/// Runs the workload.
pub fn run(opts: &Opts, pins: &Pins) -> std::result::Result<Outcome, Box<dyn Error>> {
    let mut out = Outcome::default();
    let mut setup = Samples::with_capacity(SETUP_REPS);
    let mut train = Samples::with_capacity(SETUP_REPS);
    let mut rigs = Vec::new();
    let mut probe = Probe::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let mut trained = Duration::ZERO;
        rigs.clear();
        for k in 0..RIGS {
            let (rig, t) = Rig::new(rig_seed(opts.seed, k))?;
            trained += t;
            rigs.push(rig);
        }
        let elapsed = start.elapsed();
        let scale = probe.close_window();
        setup.push(elapsed.mul_f64(scale));
        train.push(trained.mul_f64(scale / RIGS as f64));
    }

    // One check episode per rig: untraced, with the quality figures.
    let mut check = Tally::default();
    let mut over_cap = 0u64;
    let mut power_err = Vec::with_capacity(RIGS * EPISODE);
    let mut check_react = Samples::with_capacity(RIGS * EPISODE);
    let mut references = Vec::with_capacity(RIGS);
    for rig in &rigs {
        let reference = episode(
            rig,
            &mut probe,
            &mut check_react,
            &mut check,
            |step, cap| {
                if step.record.measured_power > cap {
                    over_cap += 1;
                }
                let measured = step.record.measured_power.as_watts();
                let modelled = rig
                    .ppep
                    .chip_power_with_assignment(&step.projection, &step.projection.source_vf)?;
                power_err.push((modelled.as_watts() - measured).abs() / measured);
                Ok(())
            },
        )?;
        references.push(reference);
    }
    out.checks
        .pinned("online decisions", opts.seed, references[0], pins.online);

    // Measured phase: whole episodes until the time is up.
    let mut tally = Tally::default();
    let mut episodes = 0u64;
    let series = |on: bool| Samples::with_capacity(if on { SERIES_CAPACITY } else { 0 });
    let mut react = series(!opts.traced);
    let mut layers = Layers {
        step: series(opts.traced),
        project: series(opts.traced),
        decide: series(opts.traced),
        apply: series(opts.traced),
        transitions: 0,
    };
    let started = Instant::now();
    while episodes < RIGS as u64 || started.elapsed().as_secs_f64() < opts.seconds {
        let k = episodes as usize % RIGS;
        let digest = if opts.traced {
            traced_episode(&rigs[k], &mut probe, &mut layers, &mut tally)?
        } else {
            episode(&rigs[k], &mut probe, &mut react, &mut tally, |_, _| Ok(()))?
        };
        episodes += 1;
        let what = if opts.traced {
            "traced vs untraced decisions"
        } else {
            "repeated episode decisions"
        };
        out.checks.same(what, digest, references[k]);
    }
    out.attempted = tally.attempted;
    out.failed = tally.transient;
    react.warn_if_full("react");
    layers.step.warn_if_full("sim.step");
    eprintln!(
        "online: {episodes} episodes of {EPISODE} intervals on {RIGS} rigs, \
         rig 0 decision digest {:016x}",
        references[0]
    );

    let throughput = tally.decided as f64 / tally.loop_time.as_secs_f64();
    let probe_us = probe.readings_us();
    crate::host::report(&probe_us);
    if opts.traced {
        out.set("traced.throughput_per_s", throughput);
        out.set_layer("host.probe_us_p50", None, &probe_us);
        out.set_median("rig.train_s", &train.sorted_s());
        out.set_layer(
            "sim.step_us_p50",
            Some("sim.step_us_p99"),
            &layers.step.sorted_us(),
        );
        out.set_layer("sim.apply_us_p50", None, &layers.apply.sorted_us());
        let sim = layers.step.total_s() + layers.apply.total_s();
        out.set("sim.share_pct", 100.0 * sim / tally.loop_time.as_secs_f64());
        out.set_layer(
            "core.project_us_p50",
            Some("core.project_us_p99"),
            &layers.project.sorted_us(),
        );
        out.set_layer(
            "dvfs.decide_us_p50",
            Some("dvfs.decide_us_p99"),
            &layers.decide.sorted_us(),
        );
        out.set_noted(
            "dvfs.vf_transitions",
            (layers.transitions / episodes) as f64,
            format!("per episode of {EPISODE} intervals"),
        );
        out.set("online.intervals", tally.attempted as f64);
        out.set_noted(
            "online.cap_violation_pct",
            100.0 * over_cap as f64 / check.decided.max(1) as f64,
            format!("check episodes of {RIGS} rigs"),
        );
        out.set("online.transient_errors", tally.transient as f64);
        out.set_noted(
            "online.power_err_pct",
            100.0 * power_err.iter().sum::<f64>() / power_err.len().max(1) as f64,
            format!("check episodes of {RIGS} rigs"),
        );
    } else {
        out.set_median("setup_s", &setup.sorted_s());
        out.set("peak_rss_mb", peak_rss_mb()?);
        out.set("throughput_per_s", throughput);
        out.set_timing("latency_us_p50", "latency_us_tail", &[react.in_order_us()]);
        out.set(
            "completed_pct",
            100.0 * tally.decided as f64 / tally.attempted.max(1) as f64,
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::PINS;

    fn opts(seed: u64, traced: bool) -> Opts {
        Opts {
            workload: "online".into(),
            seed,
            seconds: 0.0,
            traced,
        }
    }

    #[test]
    fn a_wrong_pinned_digest_fails_the_run() {
        let good = run(&opts(crate::check::PINNED_SEED, false), &PINS).unwrap();
        assert!(good.checks.ok(), "{:?}", good.checks.failures());
        let wrong = Pins {
            online: PINS.online ^ 1,
            ..PINS
        };
        let bad = run(&opts(crate::check::PINNED_SEED, false), &wrong).unwrap();
        assert!(!bad.checks.ok());
        assert!(bad
            .to_json(false)
            .unwrap()
            .starts_with("{\"correct\": false"));
        // An unpinned seed has no reference digest to miss.
        let other = run(&opts(7, true), &wrong).unwrap();
        assert!(other.checks.ok(), "{:?}", other.checks.failures());
        assert_eq!(other.get("online.intervals"), Some((RIGS * EPISODE) as f64));
    }
}

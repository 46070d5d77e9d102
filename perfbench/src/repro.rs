//! `repro`: the full-scale reproduction `ppep-experiments all` runs,
//! in process, repeated until the measured phase is over.
//!
//! Every repetition rebuilds the figure CSVs in memory and digests
//! them. All repetitions must agree, a last repetition at one sweep
//! worker must agree with them, and at the pinned seed the digest must
//! equal the pinned one.
//!
//! Each phase call, and each set-up, is a window of [`crate::host`]'s
//! calibration: its time is scaled to the nominal host speed. Phase
//! calls are therefore timed in untraced runs too; a traced run only
//! reports them.

use crate::check::{Fnv, Pins};
use crate::host::Probe;
use crate::metrics::{peak_rss_mb, Outcome};
use crate::stats::{median_of, Samples};
use crate::Opts;
use ppep_experiments::common::{Context, Scale, TraceStore};
use ppep_experiments::{
    ablations, cpi_accuracy, fig01_idle_trace, fig02_model_error, fig03_cross_vf, fig04_pg_sweep,
    fig06_energy, fig07_capping, fig08_09_background, fig10_nb_share, fig11_nb_dvfs, idle_accuracy,
    observations, phenom, report, resilience,
};
use ppep_types::Result;
use std::error::Error;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Sweep workers of the measured repetitions.
const JOBS: usize = 2;

/// Context constructions timed for `setup_s`.
const SETUP_REPS: usize = 101;

/// The public phase calls, in the order `all` makes them; the traced
/// run reports each as `experiments.<phase>_s` (`train` as
/// `rig.train_s`).
const PHASES: [(&str, &str); 17] = [
    ("fig1", "experiments.fig1_s"),
    ("cpi", "experiments.cpi_s"),
    ("idle", "experiments.idle_s"),
    ("obs", "experiments.obs_s"),
    ("store", "experiments.store_s"),
    ("fig2", "experiments.fig2_s"),
    ("fig3", "experiments.fig3_s"),
    ("fig4", "experiments.fig4_s"),
    ("fig6", "experiments.fig6_s"),
    ("fig7", "experiments.fig7_s"),
    ("train", "rig.train_s"),
    ("fig8_9", "experiments.fig8_9_s"),
    ("fig10", "experiments.fig10_s"),
    ("fig11", "experiments.fig11_s"),
    ("phenom", "experiments.phenom_s"),
    ("ablations", "experiments.ablations_s"),
    ("resilience", "experiments.resilience_s"),
];

/// Times each phase call of one repetition, scaled.
struct Phases<'a> {
    probe: &'a mut Probe,
    times: Vec<(&'static str, Duration)>,
    /// The repetition so far: phase calls and the work between them.
    total: Duration,
    /// When the previous phase's window closed.
    last: Instant,
}

impl<'a> Phases<'a> {
    fn new(probe: &'a mut Probe) -> Self {
        Self {
            probe,
            times: Vec::with_capacity(PHASES.len()),
            total: Duration::ZERO,
            last: Instant::now(),
        }
    }

    fn run<T>(&mut self, name: &'static str, f: impl FnOnce() -> Result<T>) -> Result<T> {
        let start = Instant::now();
        let between = start - self.last;
        let out = f();
        let call = start.elapsed();
        let scale = self.probe.close_window();
        self.last = Instant::now();
        self.times.push((name, call.mul_f64(scale)));
        self.total += (between + call).mul_f64(scale);
        out
    }
}

/// The time of phase `name` among one repetition's `times`.
fn seconds(times: &[(&str, Duration)], name: &str) -> Option<f64> {
    times
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, d)| d.as_secs_f64())
}

/// What one repetition produced.
struct Repro {
    csv_digest: u64,
    chip_err: f64,
    cpi_err: f64,
    fig7_adherence: f64,
    store_cells: usize,
}

/// One reproduction: the phase calls of `all`, CSVs digested in file
/// order instead of printed.
fn reproduce(ctx: &Context, ph: &mut Phases) -> Result<Repro> {
    let mut csv = Fnv::new();
    let mut add = |name: &str, body: String| {
        csv.bytes(name.as_bytes());
        csv.bytes(body.as_bytes());
    };
    let table = ctx.rig.config().topology.vf_table().clone();

    let r1 = ph.run("fig1", || fig01_idle_trace::run(ctx))?;
    add("fig1.csv", report::fig01_csv(&r1));
    let rc = ph.run("cpi", || cpi_accuracy::run(ctx))?;
    add("cpi.csv", report::cpi_csv(&rc));
    black_box(ph.run("idle", || idle_accuracy::run(ctx))?);
    black_box(ph.run("obs", || observations::run(ctx))?);
    let vfs: Vec<_> = table.states().collect();
    let store = ph.run("store", || {
        Ok(TraceStore::collect_sharded(
            &ctx.rig,
            &ctx.scale.roster(ctx.seed),
            &vfs,
            &ctx.scale.budget(),
            ctx.jobs,
        ))
    })?;
    let r2 = ph.run("fig2", || fig02_model_error::run_with_store(ctx, &store))?;
    add("fig2.csv", report::fig02_csv(&r2));
    let r3 = ph.run("fig3", || fig03_cross_vf::run_with_store(ctx, &store))?;
    add("fig3.csv", report::fig03_csv(&r3));
    black_box(ph.run("fig4", || fig04_pg_sweep::run(ctx))?);
    let r6 = ph.run("fig6", || fig06_energy::run(ctx))?;
    add("fig6.csv", report::fig06_csv(&r6));
    let r7 = ph.run("fig7", || fig07_capping::run(ctx))?;
    add("fig7.csv", report::fig07_csv(&r7));
    let engine = ctx.engine(ph.run("train", || ctx.train_models())?);
    let r89 = ph.run("fig8_9", || {
        fig08_09_background::run_with_engine(ctx, &engine)
    })?;
    add("fig8_9.csv", report::fig08_09_csv(&r89));
    let r10 = ph.run("fig10", || fig10_nb_share::run_with_engine(ctx, &engine))?;
    add("fig10.csv", report::fig10_csv(&r10));
    let r11 = ph.run("fig11", || fig11_nb_dvfs::run_with_engine(ctx, &engine))?;
    add("fig11.csv", report::fig11_csv(&r11));
    black_box(ph.run("phenom", || phenom::run(ctx))?);
    let ra = ph.run("ablations", || ablations::run(ctx))?;
    add("ablations.csv", report::ablations_csv(&ra));
    black_box(ph.run("resilience", || resilience::run(ctx))?);

    Ok(Repro {
        csv_digest: csv.finish(),
        chip_err: r2.chip_overall,
        cpi_err: (rc.down.0 + rc.up.0) / 2.0,
        fig7_adherence: r7.ppep.adherence,
        store_cells: store.traces().len(),
    })
}

/// Runs the workload.
pub fn run(opts: &Opts, pins: &Pins) -> std::result::Result<Outcome, Box<dyn Error>> {
    let jobs = JOBS.min(crate::nproc());
    let mut out = Outcome::default();

    // Set-up builds the context (the simulated platform rig and the
    // scale preset) and generates the seeded roster of benchmark
    // combinations the sweeps run. Training is part of the
    // reproduction.
    let mut setup = Samples::with_capacity(SETUP_REPS);
    let mut ctx = None;
    let mut probe = Probe::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let built = Context::fx8320(Scale::Full, opts.seed).with_jobs(jobs);
        black_box(built.scale.roster(built.seed));
        let elapsed = start.elapsed();
        setup.push(elapsed.mul_f64(probe.close_window()));
        ctx = Some(built);
    }
    let ctx = ctx.expect("SETUP_REPS > 0");

    // Measured phase: whole repetitions until the time is up.
    let mut reps = Samples::with_capacity(1024);
    let mut phases: Vec<Vec<(&str, Duration)>> = Vec::new();
    let mut first: Option<Repro> = None;
    let mut busy = Duration::ZERO;
    let started = Instant::now();
    while first.is_none() || started.elapsed().as_secs_f64() < opts.seconds {
        let mut ph = Phases::new(&mut probe);
        out.attempted += 1;
        let r = reproduce(&ctx, &mut ph)?;
        reps.push(ph.total);
        busy += ph.total;
        phases.push(ph.times);
        match &first {
            Some(f) => out
                .checks
                .same("repeated reproduction", r.csv_digest, f.csv_digest),
            None => first = Some(r),
        }
    }
    let first = first.expect("at least one repetition");

    // Invariance on every seed: one sweep worker gives the same CSVs.
    let probe_us = probe.readings_us();
    let mut serial = Phases::new(&mut probe);
    let one = reproduce(&ctx.clone().with_jobs(1), &mut serial)?;
    let serial_store = seconds(&serial.times, "store");
    out.checks.same(
        "CSVs at 1 vs 2 sweep workers",
        one.csv_digest,
        first.csv_digest,
    );
    out.checks
        .pinned("figure CSVs", opts.seed, first.csv_digest, pins.repro);
    eprintln!(
        "repro: {} repetitions at {jobs} sweep workers, CSV digest {:016x}",
        reps.len(),
        first.csv_digest
    );

    crate::host::report(&probe_us);
    let throughput = reps.len() as f64 / busy.as_secs_f64();
    if opts.traced {
        out.set("traced.throughput_per_s", throughput);
        out.set_layer("host.probe_us_p50", None, &probe_us);
        for (phase, metric) in PHASES {
            let times: Vec<f64> = phases.iter().filter_map(|p| seconds(p, phase)).collect();
            if let Some(m) = median_of(&times) {
                out.set_noted(metric, m, format!("median of n={}", times.len()));
            }
        }
        out.set("experiments.store_cells", first.store_cells as f64);
        if let (Some(one_worker), Some(workers)) = (serial_store, out.get("experiments.store_s")) {
            out.set_noted(
                "experiments.store_speedup",
                one_worker / workers,
                format!("1 worker {one_worker:.3} s / {jobs} workers {workers:.3} s"),
            );
        }
        out.set("experiments.fig2_chip_err_pct", first.chip_err * 100.0);
        out.set("experiments.cpi_err_pct", first.cpi_err * 100.0);
        out.set(
            "experiments.fig7_adherence_pct",
            first.fig7_adherence * 100.0,
        );
    } else {
        out.set_median("setup_s", &setup.sorted_s());
        out.set("peak_rss_mb", peak_rss_mb()?);
        out.set("throughput_per_s", throughput);
        out.set_timing("latency_us_p50", "latency_us_tail", &[reps.in_order_us()]);
        out.set("completed_pct", 100.0);
    }
    Ok(out)
}

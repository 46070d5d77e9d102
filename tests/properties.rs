//! Property-based tests over the workspace's core invariants.
//!
//! These cover the mathematical guarantees the PPEP pipeline leans on:
//! regression solvers agreeing with each other, the Eq. 1 CPI
//! projection forming a group action over frequencies and holding
//! through the full engine projection, the hardware
//! event predictor preserving the Observation 1/2 invariants exactly,
//! the PG idle decomposition being consistent under Eqs. 7–8, and the
//! supervised daemon surviving arbitrary fault storms without ever
//! emitting a non-finite projection.

use ppep_models::cpi::CpiObservation;
use ppep_models::event_pred::HwEventPredictor;
use ppep_models::pg::{PgIdleEntry, PgIdleModel};
use ppep_pmc::sampler::IntervalSample;
use ppep_pmc::{EventCounts, EventId};
use ppep_regress::matrix::Matrix;
use ppep_regress::solve::{least_squares_qr, solve_cholesky, solve_gaussian};
use ppep_regress::{KFold, LinearRegression};
use ppep_types::{Gigahertz, Seconds, VfPoint, Volts, Watts};
use proptest::prelude::*;

fn finite(lo: f64, hi: f64) -> impl Strategy<Value = f64> {
    prop::num::f64::NORMAL.prop_map(move |v| {
        // Map an arbitrary normal float into [lo, hi) deterministically.
        let unit = (v.abs().fract()).clamp(0.0, 0.999_999);
        lo + unit * (hi - lo)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Gaussian elimination really solves the systems it accepts.
    #[test]
    fn gaussian_solution_satisfies_the_system(
        rows in prop::collection::vec(prop::collection::vec(finite(-5.0, 5.0), 4), 4),
        b in prop::collection::vec(finite(-10.0, 10.0), 4),
    ) {
        let mut m = Matrix::from_rows(&rows).unwrap();
        // Diagonal dominance guarantees non-singularity.
        for i in 0..4 {
            m[(i, i)] += 25.0;
        }
        let x = solve_gaussian(&m, &b).unwrap();
        let reconstructed = m.matvec(&x).unwrap();
        for (lhs, rhs) in reconstructed.iter().zip(&b) {
            prop_assert!((lhs - rhs).abs() < 1e-6, "{lhs} vs {rhs}");
        }
    }

    /// Cholesky and Gaussian agree on SPD systems.
    #[test]
    fn cholesky_matches_gaussian(
        rows in prop::collection::vec(prop::collection::vec(finite(-2.0, 2.0), 3), 6),
        b in prop::collection::vec(finite(-5.0, 5.0), 3),
    ) {
        let a = Matrix::from_rows(&rows).unwrap();
        let mut gram = a.gram(); // AᵀA is SPD given full column rank…
        for i in 0..3 {
            gram[(i, i)] += 1.0; // …made certain by ridge.
        }
        let x1 = solve_cholesky(&gram, &b).unwrap();
        let x2 = solve_gaussian(&gram, &b).unwrap();
        for (u, v) in x1.iter().zip(&x2) {
            prop_assert!((u - v).abs() < 1e-6);
        }
    }

    /// QR least squares reproduces planted linear models exactly.
    #[test]
    fn qr_recovers_planted_coefficients(
        w in prop::collection::vec(finite(-3.0, 3.0), 3),
        xs in prop::collection::vec(prop::collection::vec(finite(-4.0, 4.0), 3), 12),
    ) {
        let mut design: Vec<Vec<f64>> = xs;
        // Spread the sample cloud so columns are independent.
        for (i, row) in design.iter_mut().enumerate() {
            row[i % 3] += 10.0 + i as f64;
        }
        let ys: Vec<f64> = design
            .iter()
            .map(|r| r.iter().zip(&w).map(|(x, wi)| x * wi).sum())
            .collect();
        let a = Matrix::from_rows(&design).unwrap();
        let solved = least_squares_qr(&a, &ys).unwrap();
        for (s, t) in solved.iter().zip(&w) {
            prop_assert!((s - t).abs() < 1e-6, "{s} vs {t}");
        }
    }

    /// Fitting a noiseless linear model recovers it (with intercept).
    #[test]
    fn linreg_recovers_exact_models(
        intercept in finite(-10.0, 10.0),
        w0 in finite(-5.0, 5.0),
        w1 in finite(-5.0, 5.0),
    ) {
        let xs: Vec<Vec<f64>> = (0..10)
            .flat_map(|a| (0..3).map(move |b| vec![a as f64, (b * b) as f64]))
            .collect();
        let ys: Vec<f64> =
            xs.iter().map(|r| intercept + w0 * r[0] + w1 * r[1]).collect();
        let fit = LinearRegression::fit(&xs, &ys, true).unwrap();
        prop_assert!((fit.intercept() - intercept).abs() < 1e-6);
        prop_assert!((fit.coefficients()[0] - w0).abs() < 1e-7);
        prop_assert!((fit.coefficients()[1] - w1).abs() < 1e-7);
    }

    /// Eq. 1 rebasing is transitive: going A→B→C equals A→C.
    #[test]
    fn cpi_rebase_is_transitive(
        ccpi in finite(0.3, 2.0),
        mcpi in finite(0.0, 3.0),
        fa in finite(1.0, 4.0),
        fb in finite(1.0, 4.0),
        fc in finite(1.0, 4.0),
    ) {
        let obs = CpiObservation::new(ccpi + mcpi, mcpi, Gigahertz::new(fa)).unwrap();
        let via_b = obs
            .rebase(Gigahertz::new(fb))
            .rebase(Gigahertz::new(fc));
        let direct = obs.rebase(Gigahertz::new(fc));
        prop_assert!((via_b.cpi() - direct.cpi()).abs() < 1e-9);
        prop_assert!((via_b.mcpi() - direct.mcpi()).abs() < 1e-9);
    }

    /// Memory-boundedness monotonicity: more memory CPI means more
    /// retained throughput when slowing down.
    #[test]
    fn memory_bound_work_retains_more_throughput(
        ccpi in finite(0.4, 1.5),
        mcpi_small in finite(0.0, 0.5),
        extra in finite(0.3, 2.0),
    ) {
        let f_hi = Gigahertz::new(3.5);
        let f_lo = Gigahertz::new(1.4);
        let lean = CpiObservation::new(ccpi + mcpi_small, mcpi_small, f_hi).unwrap();
        let heavy =
            CpiObservation::new(ccpi + mcpi_small + extra, mcpi_small + extra, f_hi).unwrap();
        prop_assert!(heavy.predict_speedup(f_lo) > lean.predict_speedup(f_lo));
    }

    /// The event predictor preserves per-instruction fingerprints and
    /// the Observation-2 gap exactly, for any consistent sample.
    #[test]
    fn event_predictor_preserves_invariants(
        uops in finite(1.0, 2.0),
        dcache in finite(0.1, 0.8),
        l2miss in finite(0.0, 0.03),
        mcpi in finite(0.0, 2.0),
        stalls in finite(0.1, 0.8),
        target_idx in 0usize..5,
    ) {
        let table = ppep_types::VfTable::fx8320();
        let from = table.point(table.highest());
        let to = table.point(table.state(target_idx).unwrap());
        let dt = Seconds::new(0.2);
        let cpi = 0.4 + stalls + mcpi;
        let cycles = from.frequency.as_hz() * dt.as_secs();
        let inst = cycles / cpi;
        let mut c = EventCounts::zero();
        c.set(EventId::RetiredInstructions, inst);
        c.set(EventId::CpuClocksNotHalted, cycles);
        c.set(EventId::MabWaitCycles, mcpi * inst);
        c.set(EventId::RetiredUops, uops * inst);
        c.set(EventId::DataCacheAccesses, dcache * inst);
        c.set(EventId::L2CacheMisses, l2miss * inst);
        c.set(EventId::DispatchStalls, (stalls + 0.9 * mcpi) * inst);
        let sample = IntervalSample { counts: c, duration: dt };
        let pred = HwEventPredictor::new().predict(&sample, from, to).unwrap();
        prop_assert!(pred.ips > 0.0);
        // Observation 1: per-instruction rates preserved.
        for (event, per_inst) in [
            (EventId::RetiredUops, uops),
            (EventId::DataCacheAccesses, dcache),
            (EventId::L2CacheMisses, l2miss),
        ] {
            let got = pred.rates.get(event) / pred.ips;
            prop_assert!((got - per_inst).abs() < 1e-9, "{event}: {got} vs {per_inst}");
        }
        // Observation 2: the CPI − DSPI gap carries over.
        let src_gap = cpi - (stalls + 0.9 * mcpi);
        let dst_gap = pred.cpi - pred.rates.get(EventId::DispatchStalls) / pred.ips;
        prop_assert!((src_gap - dst_gap).abs() < 1e-9);
    }

    /// Eq. 7 per-core shares always sum back to the gated chip idle
    /// power, whatever the busy pattern.
    #[test]
    fn pg_attribution_is_conservative(
        cu_w in finite(1.0, 8.0),
        nb_w in finite(1.0, 10.0),
        base_w in finite(0.5, 6.0),
        busy_mask in 1u8..16,
    ) {
        let entries = vec![PgIdleEntry {
            pidle_cu: Watts::new(cu_w),
            pidle_nb: Watts::new(nb_w),
        }; 5];
        let model = PgIdleModel::from_parts(entries, Watts::new(base_w), 4);
        let table = ppep_types::VfTable::fx8320();
        let vf = table.highest();
        // One core busy per set bit of the mask (one per CU).
        let cu_active: Vec<bool> = (0..4).map(|i| busy_mask & (1 << i) != 0).collect();
        let n = cu_active.iter().filter(|b| **b).count();
        let chip = model
            .chip_idle_pg_enabled(&cu_active, &[vf; 4])
            .unwrap()
            .as_watts();
        let per_core_total: f64 = cu_active
            .iter()
            .filter(|b| **b)
            .map(|_| model.per_core_idle_pg_enabled(vf, 1, n).unwrap().as_watts())
            .sum();
        prop_assert!((chip - per_core_total).abs() < 1e-9, "{chip} vs {per_core_total}");
    }

    /// K-fold splits partition the index space for any (n, k).
    #[test]
    fn kfold_partitions(n in 4usize..200, k in 2usize..5, seed in 0u64..1000) {
        prop_assume!(n >= k);
        let kf = KFold::new_shuffled(n, k, seed).unwrap();
        let mut seen = vec![false; n];
        for f in 0..k {
            for &i in kf.test_indices(f) {
                prop_assert!(!seen[i], "index {i} in two folds");
                seen[i] = true;
            }
            let train = kf.train_indices(f);
            prop_assert_eq!(train.len() + kf.test_indices(f).len(), n);
        }
        prop_assert!(seen.into_iter().all(|s| s));
    }

    /// Unit arithmetic: energy identities hold for any magnitudes.
    #[test]
    fn energy_identities(p in finite(0.1, 500.0), t in finite(0.001, 100.0)) {
        let e = Watts::new(p) * Seconds::new(t);
        prop_assert!((e / Seconds::new(t) - Watts::new(p)).abs().as_watts() < 1e-9);
        prop_assert!(((e / Watts::new(p)).as_secs() - t).abs() < 1e-9);
    }

    /// VfPoint-based scaling: dynamic model voltage scaling is
    /// monotone in voltage for core events.
    #[test]
    fn dynamic_scaling_monotone(v1 in finite(0.6, 1.0), v2 in finite(1.01, 1.5)) {
        let mut weights = [0.0; 9];
        weights[0] = 1.0e-9;
        let model = ppep_models::DynamicPowerModel::from_parts(
            weights,
            2.0,
            Volts::new(1.32),
        );
        let mut rates = [0.0; 9];
        rates[0] = 1.0e9;
        let lo = model.estimate_core(&rates, Volts::new(v1)).unwrap();
        let hi = model.estimate_core(&rates, Volts::new(v2)).unwrap();
        prop_assert!(hi > lo);
    }
}

/// A quick-trained engine shared by the daemon properties (training is
/// deterministic, so sharing it does not couple the cases).
fn trained_engine() -> ppep_core::Ppep {
    use std::sync::OnceLock;
    static MODELS: OnceLock<ppep_models::trainer::TrainedModels> = OnceLock::new();
    ppep_core::Ppep::new(
        MODELS
            .get_or_init(|| {
                ppep_rig::TrainingRig::fx8320(42)
                    .train_quick()
                    .expect("training succeeds")
            })
            .clone(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Whatever faults a storm throws at it — dropouts, NaN diodes,
    /// stuck sensors, counter wraps, MSR failures, overruns, at any
    /// rate — the supervised daemon never panics, never aborts, and
    /// never emits a non-finite power/energy projection.
    #[test]
    fn supervised_daemon_survives_arbitrary_fault_storms(
        storm_seed in 0u64..1_000,
        rate in finite(0.0, 0.9),
    ) {
        use ppep_core::daemon::{PpepDaemon, StaticController};
        use ppep_core::resilient::{ResilientDaemon, SupervisorConfig};
        use ppep_sim::fault::FaultPlan;

        const INTERVALS: usize = 12;
        let ppep = trained_engine();
        let table = ppep.models().vf_table().clone();
        let mut sim = ppep_sim::ChipSimulator::new(ppep_sim::chip::SimConfig::fx8320(42));
        sim.load_workload(&ppep_workloads::combos::instances("433.milc", 4, 42));
        sim.set_fault_plan(FaultPlan::storm(storm_seed, INTERVALS as u64, rate, 8));
        let inner = PpepDaemon::new(
            ppep,
            ppep_sim::SimPlatform::new(sim),
            StaticController { vf: table.lowest() },
        );
        let mut daemon = ResilientDaemon::new(inner, SupervisorConfig::new(table.lowest()));

        let steps = daemon.run(INTERVALS);
        prop_assert!(steps.is_ok(), "transient faults must never abort: {:?}", steps.err());
        let steps = steps.unwrap();
        prop_assert_eq!(steps.len(), INTERVALS);
        for s in &steps {
            prop_assert_eq!(s.decision.len(), 4, "one VF per CU, always");
            if let Some(p) = &s.projection {
                for c in &p.chip {
                    prop_assert!(
                        c.power.as_watts().is_finite() && c.power.as_watts() >= 0.0,
                        "power {:?} at interval {}", c.power, s.interval
                    );
                    prop_assert!(c.energy.as_joules().is_finite() && c.edp.is_finite());
                    prop_assert!(c.ips.is_finite());
                }
                prop_assert!(p.temperature.as_kelvin().is_finite());
            }
        }
        let report = daemon.report();
        prop_assert_eq!(report.intervals, INTERVALS as u64);
        let availability = report.decision_availability();
        prop_assert!((0.0..=1.0).contains(&availability));
        // Bookkeeping is conservative: every interval is accounted as
        // exactly one of fresh, held, or failsafe-pinned.
        prop_assert_eq!(
            report.fresh_decisions + report.held_decisions + report.failsafe_intervals,
            INTERVALS as u64
        );
    }
}

/// A busy FX-8320 record (4 CUs x 2 cores): core `i` retires `inst[i]`
/// instructions at CPI `ccpi[i] + mcpi[i]`, of which `mcpi[i]` is
/// leading-load memory time, on CU VF states `picks`.
fn busy_record(
    table: &ppep_types::VfTable,
    ccpi: &[f64],
    mcpi: &[f64],
    inst: &[f64],
    picks: &[usize],
) -> ppep_telemetry::IntervalRecord {
    use ppep_telemetry::record::PowerBreakdown;
    let duration = Seconds::new(0.2);
    let samples: Vec<IntervalSample> = (0..8)
        .map(|i| {
            let mut c = EventCounts::zero();
            c.set(EventId::RetiredInstructions, inst[i]);
            c.set(EventId::CpuClocksNotHalted, (ccpi[i] + mcpi[i]) * inst[i]);
            c.set(EventId::MabWaitCycles, mcpi[i] * inst[i]);
            c.set(
                EventId::DispatchStalls,
                (0.5 * ccpi[i] + 0.9 * mcpi[i]) * inst[i],
            );
            c.set(EventId::RetiredUops, 1.5 * inst[i]);
            c.set(EventId::DataCacheAccesses, 0.4 * inst[i]);
            c.set(EventId::L2CacheMisses, 0.01 * inst[i]);
            IntervalSample {
                counts: c,
                duration,
            }
        })
        .collect();
    ppep_telemetry::IntervalRecord {
        index: ppep_types::time::IntervalIndex(0),
        duration,
        samples,
        true_counts: vec![EventCounts::zero(); 8],
        measured_power: Watts::new(60.0),
        true_power: PowerBreakdown {
            core_dynamic: vec![Watts::ZERO; 8],
            nb_dynamic: Watts::ZERO,
            cu_idle: vec![Watts::ZERO; 4],
            nb_idle: Watts::ZERO,
            base: Watts::ZERO,
        },
        temperature: ppep_types::Kelvin::new(320.0),
        cu_vf: picks.iter().map(|&p| table.state(p).unwrap()).collect(),
        nb_state: ppep_types::vf::NbVfState::High,
        core_busy: vec![true; 8],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Eq. 1 through the production projection: each core's cell at
    /// its own VF state reproduces the measured CPI, and predicted CPI
    /// never falls as the target frequency f' rises.
    #[test]
    fn projected_cpi_follows_eq1(
        ccpi in prop::collection::vec(finite(0.3, 2.0), 8),
        mcpi in prop::collection::vec(finite(0.0, 3.0), 8),
        inst in prop::collection::vec(finite(1.0e6, 5.0e8), 8),
        picks in prop::collection::vec(0usize..5, 4),
    ) {
        let ppep = trained_engine();
        let table = ppep.models().vf_table().clone();
        let record = busy_record(&table, &ccpi, &mcpi, &inst, &picks);
        let projection = ppep.project(&record).unwrap();
        for (i, core) in projection.cores.iter().enumerate() {
            let counts = &record.samples[i].counts;
            let measured = counts.get(EventId::CpuClocksNotHalted)
                / counts.get(EventId::RetiredInstructions);
            let own = core.at(record.cu_vf[i / 2]).cpi;
            prop_assert!(
                ((own - measured) / measured).abs() <= 1e-12,
                "core {}: CPI {} at its own state vs measured {}", i, own, measured
            );
            for w in core.per_vf.windows(2) {
                prop_assert!(
                    w[1].cpi >= w[0].cpi,
                    "core {}: CPI falls from {} to {} as f' rises", i, w[0].cpi, w[1].cpi
                );
            }
        }
    }
}

/// A plain (non-proptest) sanity check that the strategies above are
/// actually exercising the range they claim.
#[test]
fn finite_strategy_stays_in_range() {
    use proptest::strategy::ValueTree;
    use proptest::test_runner::TestRunner;
    let mut runner = TestRunner::default();
    for _ in 0..100 {
        let v = finite(2.0, 3.0).new_tree(&mut runner).unwrap().current();
        assert!((2.0..3.0).contains(&v), "{v}");
    }
}

// Silence the unused-import warning for VfPoint, which documents the
// intended vocabulary for future properties.
#[allow(dead_code)]
fn _vocabulary(_p: VfPoint) {}

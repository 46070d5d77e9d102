//! Differential harness pinning the production projection — the
//! batch SoA kernel behind `Ppep::project_nb` — to the scalar
//! reference in `tests/support/scalar_reference.rs`, bit for bit.
//!
//! The batch kernel (`ppep_core::batch`) restructures the Fig. 5
//! core × VF grid walk into struct-of-arrays passes. Its contract is
//! not "close": every `f64` it emits must have the *same bits* as the
//! per-cell reference, and every input the reference rejects must be
//! rejected with the same typed error. This harness drives both over
//! adversarial inputs — NaN/±inf/subnormal counter salting,
//! zero-instruction (idle) intervals, counter values adjacent to the
//! 48-bit PMC wrap boundary, arbitrary VF ladders and topologies, and
//! both NB operating points — and compares with `to_bits()` equality
//! per cell. The ignored release test at the bottom gates the batch
//! kernel's speedup over the reference:
//!
//! ```text
//! cargo test --release --test kernel_equivalence -- --ignored --nocapture batch_kernel_speedup
//! ```

#[path = "support/scalar_reference.rs"]
mod scalar_reference;

use ppep_core::PpeProjection;
use ppep_core::Ppep;
use ppep_models::green_governors::GreenGovernors;
use ppep_models::idle::{IdlePowerModel, IdleSample};
use ppep_models::trainer::TrainedModels;
use ppep_models::{ChipPowerModel, DynamicPowerModel};
use ppep_pmc::sampler::IntervalSample;
use ppep_pmc::{EventCounts, EventId};
use ppep_telemetry::record::{IntervalRecord, PowerBreakdown};
use ppep_types::time::IntervalIndex;
use ppep_types::vf::NbVfState;
use ppep_types::{Gigahertz, Kelvin, Seconds, Topology, VfPoint, VfTable, Volts, Watts};
use proptest::prelude::*;

/// One counter value adjacent to the 48-bit PMC wrap boundary.
const PMC_WRAP: f64 = (1u64 << 48) as f64;

fn finite(lo: f64, hi: f64) -> impl Strategy<Value = f64> {
    prop::num::f64::NORMAL.prop_map(move |v| {
        let unit = (v.abs().fract()).clamp(0.0, 0.999_999);
        lo + unit * (hi - lo)
    })
}

/// A strictly increasing ladder built from positive increments.
fn build_table(n_states: usize, dv: &[f64], df: &[f64]) -> VfTable {
    let mut points = Vec::with_capacity(n_states);
    let mut v = 0.75;
    let mut f = 1.0;
    for i in 0..n_states {
        v += dv[i];
        f += df[i];
        points.push(VfPoint::new(Volts::new(v), Gigahertz::new(f)));
    }
    VfTable::new(points).expect("increments keep the ladder strictly increasing")
}

/// A synthetic trained bundle over an arbitrary ladder/topology —
/// no rig, so the proptest can vary every model parameter.
fn build_models(
    table: &VfTable,
    cus: usize,
    cores_per_cu: usize,
    weights: &[f64],
    alpha: f64,
) -> TrainedModels {
    let mut w = [0.0; 9];
    w.copy_from_slice(&weights[..9]);
    let reference = table.point(table.highest()).voltage;
    let dynamic = DynamicPowerModel::from_parts(w, alpha, reference);
    // P = 0.1·T + 10·V — linear, so any ladder's fit is exact.
    let mut samples = Vec::new();
    for (_, point) in table.iter() {
        for i in 0..4 {
            let t = 305.0 + 7.0 * f64::from(i);
            samples.push(IdleSample {
                voltage: point.voltage,
                temperature: Kelvin::new(t),
                power: Watts::new(0.1 * t + 10.0 * point.voltage.as_volts()),
            });
        }
    }
    let idle = IdlePowerModel::fit(&samples).expect("synthetic idle fit");
    let governors = GreenGovernors::from_parts(vec![Watts::new(10.0); table.len()], 1.0e-9);
    let topology = Topology::new("prop", cus, cores_per_cu, table.clone(), false, 4.0, 20.0)
        .expect("positive counts");
    TrainedModels::from_parts(
        ChipPowerModel::new(idle, dynamic),
        governors,
        alpha,
        table.clone(),
        topology,
    )
}

/// Per-core counter block: `kind` selects idle / ordinary /
/// wrap-adjacent / subnormal instruction counts, the ratios shape the
/// per-instruction fingerprint.
fn build_sample(kind: u8, inst_mag: f64, ratios: &[f64], duration: Seconds) -> IntervalSample {
    let inst = match kind % 4 {
        0 => 0.0,
        1 => inst_mag,
        // Counter values just below the 48-bit PMC wrap boundary.
        2 => PMC_WRAP - inst_mag.max(1.0),
        _ => 5.0e-324, // subnormal: busy, but absurdly so
    };
    let ccpi = 0.4 + ratios[0];
    let mcpi = ratios[1];
    let mut c = EventCounts::zero();
    c.set(EventId::RetiredInstructions, inst);
    c.set(EventId::CpuClocksNotHalted, (ccpi + mcpi) * inst);
    c.set(EventId::MabWaitCycles, mcpi * inst);
    c.set(EventId::DispatchStalls, (0.1 + ratios[2]) * inst);
    c.set(EventId::RetiredUops, (1.0 + ratios[3]) * inst);
    c.set(EventId::FpuPipeAssignment, ratios[4] * inst);
    c.set(EventId::InstructionCacheFetches, ratios[5] * inst);
    c.set(EventId::DataCacheAccesses, ratios[6] * inst);
    c.set(EventId::RequestsToL2, ratios[7] * inst);
    c.set(EventId::RetiredBranches, ratios[8] * inst);
    c.set(EventId::RetiredMispredictedBranches, ratios[9] * inst);
    c.set(EventId::L2CacheMisses, ratios[10] * inst);
    IntervalSample {
        counts: c,
        duration,
    }
}

fn build_record(
    models: &TrainedModels,
    kinds: &[u8],
    inst_mags: &[f64],
    ratios: &[f64],
    cu_vf_picks: &[usize],
    salt: Option<(usize, usize, f64)>,
) -> IntervalRecord {
    let n_cores = models.topology().core_count();
    let n_cus = models.topology().cu_count();
    let duration = Seconds::new(0.2);
    let mut samples = Vec::with_capacity(n_cores);
    for core in 0..n_cores {
        let r = &ratios[core * 11..core * 11 + 11];
        samples.push(build_sample(kinds[core], inst_mags[core], r, duration));
    }
    if let Some((core, event, value)) = salt {
        if let (Some(sample), Some(event)) =
            (samples.get_mut(core), EventId::from_index(event % 12))
        {
            sample.counts.set(event, value);
        }
    }
    let table = models.vf_table();
    let cu_vf: Vec<_> = (0..n_cus)
        .map(|cu| {
            let idx = cu_vf_picks[cu] % table.len();
            table.state(idx).expect("index reduced mod len")
        })
        .collect();
    let core_busy: Vec<bool> = samples
        .iter()
        .map(|s| s.counts.get(EventId::RetiredInstructions) > 0.0)
        .collect();
    IntervalRecord {
        index: IntervalIndex(0),
        duration,
        samples,
        true_counts: vec![EventCounts::zero(); n_cores],
        measured_power: Watts::new(25.0),
        true_power: PowerBreakdown {
            core_dynamic: vec![Watts::ZERO; n_cores],
            nb_dynamic: Watts::ZERO,
            cu_idle: vec![Watts::ZERO; n_cus],
            nb_idle: Watts::ZERO,
            base: Watts::ZERO,
        },
        temperature: Kelvin::new(318.0),
        cu_vf,
        nb_state: NbVfState::High,
        core_busy,
    }
}

/// `to_bits()` equality over every float either projection carries.
fn bits_eq(batch: &PpeProjection, scalar: &PpeProjection) -> Result<(), String> {
    macro_rules! check {
        ($a:expr, $b:expr, $what:expr) => {
            if $a.to_bits() != $b.to_bits() {
                return Err(format!("{} differ: {:?} vs {:?}", $what, $a, $b));
            }
        };
    }
    check!(
        batch.work_instructions,
        scalar.work_instructions,
        "work_instructions"
    );
    if batch.cores.len() != scalar.cores.len() {
        return Err("core counts differ".into());
    }
    for (b, s) in batch.cores.iter().zip(&scalar.cores) {
        if b.busy != s.busy || b.per_vf.len() != s.per_vf.len() {
            return Err(format!("core {:?} shape/busy differ", b.core));
        }
        for (bc, sc) in b.per_vf.iter().zip(&s.per_vf) {
            check!(bc.ips, sc.ips, format!("core {:?} {} ips", b.core, bc.vf));
            check!(bc.cpi, sc.cpi, format!("core {:?} {} cpi", b.core, bc.vf));
            check!(
                bc.dynamic_power.as_watts(),
                sc.dynamic_power.as_watts(),
                format!("core {:?} {} pdyn", b.core, bc.vf)
            );
        }
    }
    if batch.chip.len() != scalar.chip.len() {
        return Err("chip lengths differ".into());
    }
    for (b, s) in batch.chip.iter().zip(&scalar.chip) {
        check!(
            b.power.as_watts(),
            s.power.as_watts(),
            format!("{} power", b.vf)
        );
        check!(
            b.nb_power.as_watts(),
            s.nb_power.as_watts(),
            format!("{} nb_power", b.vf)
        );
        check!(b.ips, s.ips, format!("{} ips", b.vf));
        check!(
            b.time_for_work.as_secs(),
            s.time_for_work.as_secs(),
            format!("{} time", b.vf)
        );
        check!(
            b.energy.as_joules(),
            s.energy.as_joules(),
            format!("{} energy", b.vf)
        );
        check!(b.edp, s.edp, format!("{} edp", b.vf));
    }
    Ok(())
}

/// The engine and the scalar reference on both NB points: identical
/// projections or identical typed errors — never a disagreement.
fn assert_kernels_agree(engine: &Ppep, record: &IntervalRecord) -> Result<(), String> {
    for nb in [NbVfState::High, NbVfState::Low] {
        let batch = engine.project_nb(record, nb);
        let scalar = scalar_reference::project_nb(engine.models(), record, nb);
        match (batch, scalar) {
            (Ok(b), Ok(s)) => bits_eq(&b, &s).map_err(|e| format!("{nb:?}: {e}"))?,
            (Err(b), Err(s)) => {
                if b.to_string() != s.to_string() {
                    return Err(format!("{nb:?}: error mismatch: {b} vs {s}"));
                }
            }
            (b, s) => {
                return Err(format!(
                    "{nb:?}: kernel disagreement: batch ok={} scalar ok={}",
                    b.is_ok(),
                    s.is_ok()
                ))
            }
        }
    }
    Ok(())
}

const SALT_VALUES: [f64; 6] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    5.0e-324, // smallest positive subnormal
    1.0e-310, // mid-range subnormal
    -1.0,     // negative count (wrap mis-correction)
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary ladders, topologies, model weights, counter blocks
    /// (idle / ordinary / wrap-adjacent / subnormal), degenerate-value
    /// salting, and both NB states: batch output is bit-identical to
    /// scalar output, and errors are string-identical.
    #[test]
    fn batch_kernel_is_bit_identical_to_scalar(
        n_states in 2usize..=7,
        cus in 1usize..=4,
        cores_per_cu in 1usize..=2,
        dv in prop::collection::vec(finite(0.02, 0.12), 7),
        df in prop::collection::vec(finite(0.15, 0.6), 7),
        weights in prop::collection::vec(finite(1.0e-11, 1.0e-9), 9),
        alpha in finite(1.0, 2.2),
        kinds in prop::collection::vec(0u8..4, 8),
        inst_mags in prop::collection::vec(finite(1.0e6, 1.0e9), 8),
        ratios in prop::collection::vec(finite(0.0, 2.0), 88),
        cu_vf_picks in prop::collection::vec(0usize..64, 4),
        salt_core in 0usize..16,
        salt_event in 0usize..12,
        salt_pick in 0usize..6,
    ) {
        let table = build_table(n_states, &dv, &df);
        let models = build_models(&table, cus, cores_per_cu, &weights, alpha);
        // Half the time the salt lands on a real core and poisons one
        // counter with a NaN/±inf/subnormal/negative value.
        let salt = (salt_core < 8).then_some((salt_core, salt_event, SALT_VALUES[salt_pick]));
        let record = build_record(&models, &kinds, &inst_mags, &ratios, &cu_vf_picks, salt);
        let engine = Ppep::new(models);
        if let Err(e) = assert_kernels_agree(&engine, &record) {
            prop_assert!(false, "{}", e);
        }
    }
}

/// The trained FX-8320 bundle over a real simulated run: every
/// interval of a mixed workload projects bit-identically through the
/// engine and the reference (the non-synthetic anchor for the property
/// above).
#[test]
fn trained_engine_matches_across_a_simulated_run() {
    let mut rig = ppep_rig::TrainingRig::fx8320(42);
    let engine = Ppep::new(rig.train_quick().expect("training succeeds"));
    let mut sim = ppep_sim::ChipSimulator::new(ppep_sim::chip::SimConfig::fx8320(42));
    sim.load_workload(&ppep_workloads::combos::instances("433.milc", 3, 42));
    for record in sim.run_intervals(8) {
        assert_kernels_agree(&engine, &record).expect("kernels agree on simulated records");
    }
}

/// Explicit pins for the corners the proptest samples: an all-idle
/// record, a wrap-adjacent record, each salt value in a fixed slot, a
/// record measured at the low NB point, and the smallest topology —
/// kept as named cases so a regression points at the corner.
#[test]
fn named_corner_cases_agree() {
    let table = VfTable::fx8320();
    let models = build_models(&table, 4, 2, &[5.0e-10; 9], 1.6);
    let engine = Ppep::new(models.clone());
    let ratios: Vec<f64> = (0..88).map(|i| 0.01 * (i % 20) as f64).collect();
    let picks = [4usize, 0, 2, 1];

    // All cores idle.
    let record = build_record(&models, &[0; 8], &[0.0; 8], &ratios, &picks, None);
    assert_kernels_agree(&engine, &record).expect("idle record");

    // All cores wrap-adjacent.
    let record = build_record(&models, &[2; 8], &[1.0e3; 8], &ratios, &picks, None);
    assert_kernels_agree(&engine, &record).expect("wrap-adjacent record");

    // Every salt value, planted in the busiest slot.
    for (i, value) in SALT_VALUES.iter().enumerate() {
        let salt = Some((0, i, *value));
        let record = build_record(&models, &[1; 8], &[5.0e8; 8], &ratios, &picks, salt);
        assert_kernels_agree(&engine, &record)
            .unwrap_or_else(|e| panic!("salt value {value:?}: {e}"));
    }

    // A source record measured at the low NB point: refused with the
    // same typed error at both targets.
    let mut record = build_record(&models, &[1; 8], &[5.0e8; 8], &ratios, &picks, None);
    record.nb_state = NbVfState::Low;
    assert!(engine.project(&record).is_err(), "NB-low source projected");
    assert_kernels_agree(&engine, &record).expect("NB-low record");

    // One CU of one core.
    let models = build_models(&table, 1, 1, &[5.0e-10; 9], 1.6);
    let single = Ppep::new(models.clone());
    let record = build_record(&models, &[1], &[2.0e8], &ratios, &picks, None);
    let projection = single.project(&record).expect("1x1 topology projects");
    assert_eq!((projection.cores.len(), projection.chip.len()), (1, 5));
    assert_kernels_agree(&single, &record).expect("1x1 topology");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Records the sharded trace store collects — the input every
    /// figure projects — match the reference for any seed.
    #[test]
    fn collected_sweep_records_match_the_reference(seed in 1u64..500) {
        use ppep_experiments::common::{Context, Scale, TraceStore};
        use ppep_workloads::combos::instances;
        let ctx = Context::fx8320(Scale::Quick, seed);
        let table = ctx.rig.config().topology.vf_table();
        let vfs = [table.lowest(), table.highest()];
        let roster = vec![instances("403.gcc", 1, seed), instances("458.sjeng", 2, seed)];
        let mut budget = ppep_models::trainer::TrainingBudget::quick();
        budget.warmup_intervals = 1;
        budget.record_intervals = 2;
        let store = TraceStore::collect_sharded(&ctx.rig, &roster, &vfs, &budget, 2);
        let mut rig = ppep_rig::TrainingRig::fx8320(seed);
        let engine = Ppep::new(rig.train_quick().expect("training succeeds"));
        for trace in store.traces() {
            for record in &trace.records {
                if let Err(e) = assert_kernels_agree(&engine, record) {
                    prop_assert!(false, "seed {}: {}", seed, e);
                }
            }
        }
    }
}

/// Median speedup the batch kernel must clear over the reference on
/// the 8-core FX-8320 preset.
const MIN_SPEEDUP: f64 = 1.5;

/// Linear-interpolated percentile of an ascending slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The speedup gate: over a simulated Fig. 7 interval stream, every
/// interval projects bit-identically at both NB points, and the batch
/// kernel's median speedup over the reference across alternating
/// timed rounds clears [`MIN_SPEEDUP`]. Timing is only meaningful in
/// a release build, so the test is ignored by default.
#[test]
#[ignore = "timing gate; run with --release"]
fn batch_kernel_speedup() {
    use ppep_experiments::common::{Context, Scale, DEFAULT_SEED};
    use std::time::Instant;
    const INTERVALS: usize = 24;
    const ROUNDS: usize = 9;
    const REPS: usize = 400;

    let ctx = Context::fx8320(Scale::Quick, DEFAULT_SEED);
    let engine = ctx.engine(ctx.train_models().expect("training succeeds"));
    let models = engine.models();
    let mut sim = ppep_sim::ChipSimulator::new(ppep_sim::chip::SimConfig::fx8320(DEFAULT_SEED));
    sim.load_workload(&ppep_workloads::combos::fig7_workload(DEFAULT_SEED));
    let records = sim.run_intervals(INTERVALS);

    // Correctness first: every interval, both NB points, all cells.
    for record in &records {
        assert_kernels_agree(&engine, record).expect("bit-identical over the fig7 stream");
    }

    let time_ms = |batch: bool| {
        let t = Instant::now();
        for _ in 0..REPS {
            for record in records.iter().map(std::hint::black_box) {
                let p = if batch {
                    engine.project(record)
                } else {
                    scalar_reference::project_nb(models, record, NbVfState::High)
                };
                std::hint::black_box(p.expect("projects"));
            }
        }
        t.elapsed().as_secs_f64() * 1e3
    };
    // One discarded warm-up round, then rounds that alternate which
    // side runs first so neither inherits the other's warm caches.
    time_ms(false);
    time_ms(true);
    let mut speedups = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let (scalar_ms, batch_ms) = if round % 2 == 0 {
            let s = time_ms(false);
            (s, time_ms(true))
        } else {
            let b = time_ms(true);
            (time_ms(false), b)
        };
        println!("round {round}: scalar {scalar_ms:.1} ms, batch {batch_ms:.1} ms");
        speedups.push(scalar_ms / batch_ms);
    }
    speedups.sort_by(f64::total_cmp);
    let median = percentile(&speedups, 0.5);
    println!(
        "batch speedup over the scalar reference ({} cores x {} VF states, \
         {ROUNDS} rounds of {REPS} x {INTERVALS} intervals): median {median:.2}x \
         [p10 {:.2}x, p90 {:.2}x]; gate {MIN_SPEEDUP}x",
        models.topology().core_count(),
        models.vf_table().len(),
        percentile(&speedups, 0.1),
        percentile(&speedups, 0.9),
    );
    assert!(
        median >= MIN_SPEEDUP,
        "batch kernel median speedup {median:.2}x is below the {MIN_SPEEDUP}x gate"
    );
}

//! Property: the sharded sweeps are invariant under the worker count —
//! `--jobs 1`, `--jobs 2`, and `--jobs N` must produce identical
//! traces, results and byte-identical derived CSVs — and under the
//! projection kernel (`--kernel scalar|batch`), since the kernels are
//! contractually bit-identical.

use ppep_core::ProjectionKernel;
use ppep_experiments::common::{Context, Scale, TraceStore, DEFAULT_SEED};
use ppep_experiments::{
    ablations, cpi_accuracy, fig02_model_error, idle_accuracy, observations, report,
};
use ppep_models::trainer::TrainingBudget;
use ppep_types::VfStateId;
use ppep_workloads::combos::instances;
use proptest::prelude::*;

/// A tiny sweep (2 combos x 2 states, short budget) so the property
/// can afford many cases.
fn tiny_sweep(seed: u64, jobs: usize) -> TraceStore {
    let ctx = Context::fx8320(Scale::Quick, seed);
    let table = ctx.rig.config().topology.vf_table().clone();
    let roster = vec![
        instances("403.gcc", 1, seed),
        instances("458.sjeng", 2, seed),
    ];
    let vfs = [table.lowest(), table.highest()];
    let mut budget = TrainingBudget::quick();
    budget.warmup_intervals = 1;
    budget.record_intervals = 2;
    TraceStore::collect_sharded(&ctx.rig, &roster, &vfs, &budget, jobs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn sharded_collection_is_worker_count_invariant(
        seed in 1u64..500,
        jobs in 2usize..9,
    ) {
        let serial = tiny_sweep(seed, 1);
        let sharded = tiny_sweep(seed, jobs);
        prop_assert_eq!(serial.traces(), sharded.traces());
    }

    #[test]
    fn shard_map_preserves_order_under_any_worker_count(
        items in 0usize..120,
        jobs in 1usize..17,
    ) {
        let cells: Vec<usize> = (0..items).collect();
        let expected: Vec<usize> = cells.iter().map(|i| i.wrapping_mul(7)).collect();
        let got = ppep_rig::shard::map(&cells, jobs, |i| i.wrapping_mul(7));
        prop_assert_eq!(got, expected);
    }

    /// Projections of collected sweep records are bit-identical under
    /// both kernels, for any seed and worker count: the fleet layer
    /// introduces no nondeterminism the kernel swap could expose.
    #[test]
    fn collected_records_project_identically_under_both_kernels(
        seed in 1u64..500,
        jobs in 1usize..5,
    ) {
        let store = tiny_sweep(seed, jobs);
        let mut rig = ppep_rig::TrainingRig::fx8320(seed);
        let models = rig.train_quick().expect("training succeeds");
        let engine = ppep_core::Ppep::new(models);
        for trace in store.traces() {
            for record in &trace.records {
                let batch = engine.project(record).expect("batch projects");
                let scalar = engine
                    .project_nb_scalar(record, ppep_types::vf::NbVfState::High)
                    .expect("scalar projects");
                for (b, s) in batch.cores.iter().zip(&scalar.cores) {
                    for (bc, sc) in b.per_vf.iter().zip(&s.per_vf) {
                        prop_assert_eq!(bc.ips.to_bits(), sc.ips.to_bits());
                        prop_assert_eq!(bc.cpi.to_bits(), sc.cpi.to_bits());
                        prop_assert_eq!(
                            bc.dynamic_power.as_watts().to_bits(),
                            sc.dynamic_power.as_watts().to_bits()
                        );
                    }
                }
                for (b, s) in batch.chip.iter().zip(&scalar.chip) {
                    prop_assert_eq!(b.power.as_watts().to_bits(), s.power.as_watts().to_bits());
                    prop_assert_eq!(b.energy.as_joules().to_bits(), s.energy.as_joules().to_bits());
                }
            }
        }
    }
}

/// The headline acceptance check: a figure CSV derived from a sharded
/// store is byte-identical to the serial one — for every combination
/// of worker count and projection kernel.
#[test]
fn fig02_csv_is_byte_identical_across_worker_counts_and_kernels() {
    let table = Context::fx8320(Scale::Quick, DEFAULT_SEED)
        .rig
        .config()
        .topology
        .vf_table()
        .clone();
    let vfs: Vec<VfStateId> = table.states().collect();

    let mut baseline: Option<String> = None;
    for (jobs, kernel) in [
        (1, ProjectionKernel::Batch),
        (4, ProjectionKernel::Batch),
        (1, ProjectionKernel::Scalar),
        (4, ProjectionKernel::Scalar),
    ] {
        let ctx = Context::fx8320(Scale::Quick, DEFAULT_SEED)
            .with_jobs(jobs)
            .with_kernel(kernel);
        let store = TraceStore::collect_sharded(
            &ctx.rig,
            &ctx.scale.roster(ctx.seed),
            &vfs,
            &ctx.scale.budget(),
            ctx.jobs,
        );
        let csv = report::fig02_csv(&fig02_model_error::run_with_store(&ctx, &store).unwrap());
        assert!(!csv.is_empty());
        match &baseline {
            None => baseline = Some(csv),
            Some(b) => assert_eq!(
                b.as_bytes(),
                csv.as_bytes(),
                "fig2.csv drifted at jobs={jobs} kernel={kernel}"
            ),
        }
    }
}

/// The studies that shard their own cells give the same results at
/// one and three workers. `Debug` prints every `f64` exactly, so equal
/// strings mean bit-equal results.
#[test]
fn sharded_studies_are_identical_at_1_and_3_jobs() {
    let studies = |jobs: usize| {
        let ctx = Context::fx8320(Scale::Quick, DEFAULT_SEED).with_jobs(jobs);
        [
            format!("{:?}", cpi_accuracy::run(&ctx).expect("cpi study")),
            format!("{:?}", observations::run(&ctx).expect("observations")),
            format!("{:?}", idle_accuracy::run(&ctx).expect("idle study")),
            format!("{:?}", ablations::run(&ctx).expect("ablations")),
        ]
    };
    let serial = studies(1);
    for (serial, sharded) in serial.iter().zip(studies(3)) {
        assert_eq!(*serial, sharded);
    }
}

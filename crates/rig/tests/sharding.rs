//! Property: every sweep the rig shards gives bit-identical results at
//! any worker count. `Debug` prints each `f64` in its shortest exact
//! form (and keeps the sign of zero), so equal `Debug` strings mean
//! bit-equal values.

use ppep_models::idle::IdlePowerModel;
use ppep_models::trainer::TrainingBudget;
use ppep_rig::TrainingRig;
use ppep_workloads::combos::instances;
use proptest::prelude::*;

/// A short budget so the property can afford several seeds.
fn short_budget() -> TrainingBudget {
    TrainingBudget {
        heat_intervals: 8,
        cool_intervals: 12,
        warmup_intervals: 1,
        record_intervals: 3,
    }
}

/// Every sharded sweep of one rig, rendered for comparison.
fn sweeps(seed: u64, jobs: usize) -> [String; 4] {
    let rig = TrainingRig::fx8320(seed).with_jobs(jobs);
    let budget = short_budget();
    let specs = [
        instances("403.gcc", 1, seed),
        instances("410.bwaves", 2, seed),
        instances("canneal", 4, seed),
        instances("458.sjeng", 8, seed),
    ];
    let idle_samples = rig.collect_idle_traces(&budget);
    let idle = IdlePowerModel::fit(&idle_samples).expect("idle fit");
    let alpha = rig.calibrate_alpha(&idle, &budget).expect("alpha");
    let sweep = rig.collect_pg_sweep(&budget).expect("pg sweep");
    let models = rig.train(&specs, &budget).expect("training");
    [
        format!("{idle_samples:?}"),
        format!("{:?}", alpha.to_bits()),
        format!("{sweep:?}"),
        format!("{models:?}"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn rig_sweeps_are_bit_identical_at_1_2_and_5_jobs(seed in 1u64..10_000) {
        let serial = sweeps(seed, 1);
        for jobs in [2, 5] {
            prop_assert_eq!(&sweeps(seed, jobs), &serial, "jobs = {}", jobs);
        }
    }
}

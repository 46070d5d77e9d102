//! Run statistics for daemon sessions.
//!
//! A DVFS study usually ends with the same questions: how much energy
//! did the run use, at what average power and throughput, and where on
//! the ladder did the controller actually spend its time?
//! [`RunStats`] accumulates those from [`crate::daemon::DaemonStep`]s.

use crate::daemon::DaemonStep;
use ppep_types::{Joules, Seconds, VfStateId, Watts};

/// Aggregated statistics over a sequence of daemon steps.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    intervals: usize,
    energy_j: f64,
    time_s: f64,
    work_instructions: f64,
    /// VF residency: interval counts per (CU, VF index).
    residency: Vec<Vec<usize>>,
}

impl RunStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one daemon step into the statistics.
    #[expect(
        clippy::indexing_slicing,
        reason = "residency is resized to cu_count x (vf.index() + 1) just above before indexing"
    )]
    pub fn record(&mut self, step: &DaemonStep) {
        self.intervals += 1;
        self.energy_j += step.record.measured_energy().as_joules();
        self.time_s += step.record.duration.as_secs();
        self.work_instructions += step.projection.work_instructions;
        if self.residency.len() < step.record.cu_vf.len() {
            self.residency.resize(step.record.cu_vf.len(), Vec::new());
        }
        for (cu, vf) in step.record.cu_vf.iter().enumerate() {
            let slots = &mut self.residency[cu];
            if slots.len() <= vf.index() {
                slots.resize(vf.index() + 1, 0);
            }
            slots[vf.index()] += 1;
        }
    }

    /// Folds a whole run.
    pub fn record_all<'a>(&mut self, steps: impl IntoIterator<Item = &'a DaemonStep>) {
        for s in steps {
            self.record(s);
        }
    }

    /// Number of intervals recorded.
    pub fn intervals(&self) -> usize {
        self.intervals
    }

    /// Total measured energy.
    pub fn energy(&self) -> Joules {
        Joules::new(self.energy_j)
    }

    /// Total wall-clock time.
    pub fn time(&self) -> Seconds {
        Seconds::new(self.time_s)
    }

    /// Mean chip power over the run.
    pub fn mean_power(&self) -> Watts {
        if self.time_s > 0.0 {
            Watts::new(self.energy_j / self.time_s)
        } else {
            Watts::ZERO
        }
    }

    /// Total instructions retired.
    pub fn work_instructions(&self) -> f64 {
        self.work_instructions
    }

    /// Energy per instruction, in nanojoules (`NaN` before any work).
    pub fn nj_per_instruction(&self) -> f64 {
        self.energy_j / self.work_instructions * 1e9
    }

    /// Fraction of intervals CU `cu` spent at `vf` (0.0 when never
    /// seen).
    pub fn residency(&self, cu: usize, vf: VfStateId) -> f64 {
        if self.intervals == 0 {
            return 0.0;
        }
        self.residency
            .get(cu)
            .and_then(|slots| slots.get(vf.index()))
            .map_or(0.0, |n| *n as f64 / self.intervals as f64)
    }
}

impl std::fmt::Display for RunStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} intervals, {:.2} over {:.1}, mean {:.1}, {:.2} nJ/inst",
            self.intervals,
            self.energy(),
            self.time(),
            self.mean_power(),
            self.nj_per_instruction()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::{PpepDaemon, StaticController};
    use crate::Ppep;
    use ppep_rig::TrainingRig;
    use ppep_sim::chip::{ChipSimulator, SimConfig};
    use ppep_sim::SimPlatform;
    use ppep_workloads::combos::instances;
    use std::sync::OnceLock;

    fn engine() -> Ppep {
        static M: OnceLock<ppep_models::trainer::TrainedModels> = OnceLock::new();
        Ppep::new(
            M.get_or_init(|| TrainingRig::fx8320(42).train_quick().expect("trains"))
                .clone(),
        )
    }

    #[test]
    fn stats_accumulate_a_pinned_run() {
        let ppep = engine();
        let table = ppep.models().vf_table().clone();
        let mut sim = ChipSimulator::new(SimConfig::fx8320_pg(42));
        sim.load_workload(&instances("458.sjeng", 2, 42));
        let mut daemon = PpepDaemon::new(
            ppep,
            SimPlatform::new(sim),
            StaticController { vf: table.lowest() },
        );
        let steps = daemon.run(10).into_result().expect("daemon runs");
        let mut stats = RunStats::new();
        stats.record_all(&steps);
        assert_eq!(stats.intervals(), 10);
        assert!((stats.time().as_secs() - 2.0).abs() < 1e-9);
        assert!(stats.mean_power().as_watts() > 5.0);
        assert!(stats.work_instructions() > 0.0);
        assert!(stats.nj_per_instruction().is_finite());
        // The first interval runs at the boot state; afterwards pinned.
        assert!((stats.residency(0, table.lowest()) - 0.9).abs() < 1e-9);
        assert!((stats.residency(0, table.highest()) - 0.1).abs() < 1e-9);
        // Residency sums to one per CU.
        let total: f64 = table.states().map(|vf| stats.residency(0, vf)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(stats.to_string().contains("10 intervals"));
    }

    #[test]
    fn empty_stats_are_safe() {
        let stats = RunStats::new();
        assert_eq!(stats.intervals(), 0);
        assert_eq!(stats.mean_power(), Watts::ZERO);
        assert_eq!(
            stats.residency(0, ppep_types::VfTable::fx8320().lowest()),
            0.0
        );
        assert!(stats.nj_per_instruction().is_nan());
    }
}

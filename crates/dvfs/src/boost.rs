//! A PPEP-driven hardware boost controller — the §IV-E extension.
//!
//! The paper disables the FX-8320's boost states because the stock
//! controller is not software-controllable, but points out that a
//! firmware implementation of PPEP "can also be used to control
//! hardware boost states". This module builds that controller: instead
//! of reactively ramping and backing off, it *predicts* whether a
//! boosted assignment stays inside the TDP and thermal envelope, and
//! engages boost in a single step only when it provably fits.
//!
//! Use with a boost-exposing platform
//! (`ppep_sim::chip::SimConfig::fx8320_boost`) and models trained on
//! its seven-state ladder.

use ppep_core::daemon::DvfsController;
use ppep_core::ppe::PpeProjection;
use ppep_core::Ppep;
use ppep_types::{Kelvin, Result, VfStateId, Watts};

/// Predictive boost controller: run at the nominal top state by
/// default, boost individual CUs when the projection says the chip
/// stays inside its power and thermal budget.
#[derive(Debug, Clone)]
pub struct BoostController {
    ppep: Ppep,
    /// Chip power budget the boosted assignment must respect.
    pub tdp: Watts,
    /// Diode temperature above which boosting is vetoed outright.
    pub thermal_limit: Kelvin,
    /// Guard band under the TDP (fraction), like the capping policy.
    pub guard_band: f64,
    nominal_top: VfStateId,
}

impl BoostController {
    /// Builds a controller whose nominal (non-boost) ceiling is the
    /// state at `software_states − 1` of the engine's ladder.
    ///
    /// # Errors
    ///
    /// Returns an error when the engine's ladder has no boost states
    /// beyond `software_states`, or `software_states` is zero.
    pub fn new(
        ppep: Ppep,
        software_states: usize,
        tdp: Watts,
        thermal_limit: Kelvin,
    ) -> Result<Self> {
        let table = ppep.models().vf_table().clone();
        if software_states == 0 || software_states >= table.len() {
            return Err(ppep_types::Error::InvalidConfig(format!(
                "need 0 < software_states < ladder length {}, got {software_states}",
                table.len()
            )));
        }
        let nominal_top = table.state(software_states - 1)?;
        Ok(Self {
            ppep,
            tdp,
            thermal_limit,
            guard_band: 0.05,
            nominal_top,
        })
    }

    /// The nominal (non-boost) top state.
    pub fn nominal_top(&self) -> VfStateId {
        self.nominal_top
    }

    /// The boost decision: start everyone at the nominal top, then
    /// greedily promote CUs into boost bins while the predicted chip
    /// power stays under the guarded TDP and the chip is cool enough.
    ///
    /// # Errors
    ///
    /// Propagates projection-evaluation errors.
    #[expect(
        clippy::indexing_slicing,
        reason = "cu ranges over 0..assignment.len(); candidate is a clone of assignment"
    )]
    pub fn choose(&self, projection: &PpeProjection) -> Result<Vec<VfStateId>> {
        let table = self.ppep.models().vf_table().clone();
        let cu_count = projection.source_vf.len();
        let mut assignment = vec![self.nominal_top; cu_count];

        // Thermal veto: no boosting on a hot chip.
        if projection.temperature > self.thermal_limit {
            return Ok(assignment);
        }
        let budget = self.tdp * (1.0 - self.guard_band);
        // Nominal must fit; otherwise this is a capping problem, not a
        // boosting one — stay nominal and let a capping policy demote.
        if self
            .ppep
            .chip_power_with_assignment(projection, &assignment)?
            > budget
        {
            return Ok(assignment);
        }
        loop {
            let mut best: Option<(usize, VfStateId, f64)> = None;
            for cu in 0..cu_count {
                let Some(up) = table.step_up(assignment[cu]) else {
                    continue;
                };
                let mut candidate = assignment.clone();
                candidate[cu] = up;
                let power = self
                    .ppep
                    .chip_power_with_assignment(projection, &candidate)?;
                if power > budget {
                    continue;
                }
                // Promote the CU with the most predicted throughput gain.
                let cores_per_cu = self.ppep.models().topology().cores_per_cu();
                let gain: f64 =
                    projection
                        .cores
                        .chunks(cores_per_cu)
                        .nth(cu)
                        .map_or(0.0, |cores| {
                            cores
                                .iter()
                                .map(|core| core.at(up).ips - core.at(assignment[cu]).ips)
                                .sum()
                        });
                if best.as_ref().is_none_or(|(_, _, g)| gain > *g) {
                    best = Some((cu, up, gain));
                }
            }
            match best {
                Some((cu, up, gain)) if gain > 0.0 => assignment[cu] = up,
                _ => break,
            }
        }
        Ok(assignment)
    }
}

impl DvfsController for BoostController {
    fn decide(&mut self, projection: &PpeProjection) -> Result<Vec<VfStateId>> {
        self.choose(projection)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppep_core::daemon::PpepDaemon;
    use ppep_models::trainer::TrainedModels;
    use ppep_rig::TrainingRig;
    use ppep_sim::chip::{ChipSimulator, SimConfig};
    use ppep_sim::SimPlatform;
    use ppep_types::vf::VfTable;
    use ppep_workloads::combos::instances;
    use std::sync::OnceLock;

    fn boosted_models() -> &'static TrainedModels {
        static MODELS: OnceLock<TrainedModels> = OnceLock::new();
        MODELS.get_or_init(|| {
            TrainingRig::with_config(SimConfig::fx8320_boost(42), 42)
                .train_quick()
                .expect("boost-ladder training succeeds")
        })
    }

    fn controller(tdp: f64) -> BoostController {
        BoostController::new(
            Ppep::new(boosted_models().clone()),
            VfTable::FX8320_SOFTWARE_STATES,
            Watts::new(tdp),
            Kelvin::new(335.0),
        )
        .expect("valid controller")
    }

    fn daemon(tdp: f64, workload: &str, n: usize) -> PpepDaemon<SimPlatform, BoostController> {
        let ppep = Ppep::new(boosted_models().clone());
        let mut sim = ChipSimulator::new(SimConfig::fx8320_boost(42));
        sim.load_workload(&instances(workload, n, 42));
        sim.set_all_vf(controller(tdp).nominal_top());
        PpepDaemon::new(ppep, SimPlatform::new(sim), controller(tdp))
    }

    #[test]
    fn lone_thread_with_headroom_gets_boosted() {
        let mut d = daemon(125.0, "458.sjeng", 1);
        let steps = d.run(4).into_result().expect("daemon runs");
        let last = steps.last().unwrap();
        assert!(
            last.decision.iter().any(|vf| vf.index() >= 5),
            "cool, under-budget chip must boost: {:?}",
            last.decision
        );
        // And the boosted run must still respect the TDP.
        assert!(last.record.measured_power < Watts::new(125.0));
    }

    #[test]
    fn fully_loaded_chip_boosts_less_and_respects_tdp() {
        // 8 busy sjeng cores draw ~150 W at nominal; a 152 W TDP
        // leaves no headroom to boost (a lone thread under the same
        // TDP has plenty). A looser TDP makes this assertion
        // knife-edge: the full chip can squeeze out the same 2 boost
        // bins the lone thread's single busy CU is limited to.
        let tdp = 152.0;
        let mut full = daemon(tdp, "458.sjeng", 8);
        let full_steps = full.run(6).into_result().expect("daemon runs");
        for s in &full_steps[1..] {
            assert!(
                s.record.measured_power <= Watts::new(tdp * 1.04),
                "boost controller violated TDP: {}",
                s.record.measured_power
            );
        }
        let boosted_full = full_steps
            .last()
            .unwrap()
            .decision
            .iter()
            .filter(|vf| vf.index() >= 5)
            .count();
        // A lone thread under the same TDP boosts every headroom it
        // can; the loaded chip must grant strictly fewer boost bins.
        let mut lone = daemon(tdp, "458.sjeng", 1);
        let lone_steps = lone.run(4).into_result().expect("daemon runs");
        let boosted_lone_levels: usize = lone_steps
            .last()
            .unwrap()
            .decision
            .iter()
            .map(|vf| vf.index().saturating_sub(4))
            .sum();
        let boosted_full_levels: usize = full_steps
            .last()
            .unwrap()
            .decision
            .iter()
            .map(|vf| vf.index().saturating_sub(4))
            .sum();
        assert!(
            boosted_full_levels < boosted_lone_levels,
            "full chip boosted {boosted_full_levels} levels ({boosted_full} CUs) \
             vs lone {boosted_lone_levels}"
        );
    }

    #[test]
    fn hot_chip_is_vetoed() {
        let ppep = Ppep::new(boosted_models().clone());
        let mut sim = ChipSimulator::new(SimConfig::fx8320_boost(42));
        sim.load_workload(&instances("458.sjeng", 1, 42));
        sim.set_all_vf(controller(125.0).nominal_top());
        sim.set_temperature(Kelvin::new(341.0));
        let record = sim.step_interval();
        let projection = ppep.project(&record).expect("projection");
        let decision = controller(125.0).choose(&projection).expect("decision");
        assert!(
            decision.iter().all(|vf| vf.index() < 5),
            "hot chip must not boost: {decision:?}"
        );
    }

    #[test]
    fn tiny_tdp_keeps_nominal() {
        let mut d = daemon(10.0, "458.sjeng", 1);
        let steps = d.run(2).into_result().expect("daemon runs");
        // Boosting is off; the controller leaves capping to a capper.
        for s in &steps {
            assert!(
                s.decision.iter().all(|vf| vf.index() <= 4),
                "{:?}",
                s.decision
            );
        }
    }

    #[test]
    fn constructor_validation() {
        let ppep = Ppep::new(boosted_models().clone());
        assert!(
            BoostController::new(ppep.clone(), 0, Watts::new(125.0), Kelvin::new(335.0)).is_err()
        );
        assert!(BoostController::new(ppep, 7, Watts::new(125.0), Kelvin::new(335.0)).is_err());
    }
}

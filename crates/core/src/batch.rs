//! The batched struct-of-arrays projection kernel.
//!
//! [`crate::framework::Ppep::project_nb`] prices every (core,
//! VF-state) cell of the DVFS space each interval. The per-cell
//! formulation walks the grid cell by cell, re-deriving per-state
//! constants — the `(Vn/V5)^α` weight scaling, target frequencies in
//! Hz — and per-core invariants — the LL-MAB decomposition, the
//! per-instruction event fingerprint — inside the inner loop.
//!
//! [`BatchProjector`] restructures that walk around flattened
//! coefficient tables ([`ppep_models::soa::SoaCoeffs`], built once per
//! engine) and per-core hoists, leaving the inner loops as branch-free
//! zip chains over contiguous slices. The restructuring is **bit
//! exact**: every cell value is produced by the identical sequence of
//! float operations the per-cell walk performs, only with
//! loop-invariant subexpressions computed once (IEEE-754 float ops are
//! deterministic, so hoisting a pure subexpression cannot change its
//! bits). The per-cell walk is kept in the test tree as the oracle
//! (`tests/support/scalar_reference.rs`): the differential harness in
//! `tests/kernel_equivalence.rs` enforces the contract and times the
//! speedup, and the golden-fixture pins in `tests/golden_traces.rs`
//! hold the end-to-end decisions.
//!
//! Error behaviour is preserved too: validation runs in the per-cell
//! order (memory factor → finite counts → positive frequencies →
//! CPI decomposition → finite Eq. 3 sums), so the first error any
//! record produces is the same `Error` the oracle reports.

use crate::ppe::{CoreAtVf, CoreProjection};
use ppep_models::soa::SoaCoeffs;
use ppep_models::trainer::TrainedModels;
use ppep_models::CpiObservation;
use ppep_obs::{Stage, StageClock};
use ppep_pmc::EventId;
use ppep_telemetry::IntervalRecord;
use ppep_types::{CoreId, Error, Gigahertz, Result};

/// The per-core LL-MAB hoists shared by a whole VF row.
#[derive(Debug, Clone, Copy)]
struct CpiRow {
    /// The source-interval CPI feeding the Observation-2 gap.
    source_cpi: f64,
}

/// The per-core Observation-1/2 hoists: E1–E8 per-instruction
/// fingerprint and the VF-invariant CPI − DSPI gap.
#[derive(Debug, Clone, Copy)]
struct Fingerprint {
    per_inst: [f64; 8],
    gap: f64,
}

/// The struct-of-arrays batch kernel: one record in, the full
/// core × VF-state grid out.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchProjector {
    coeffs: SoaCoeffs,
}

impl BatchProjector {
    /// Flattens the model bundle's coefficient tables for the hot
    /// loop. Called once per engine construction.
    pub fn new(models: &TrainedModels) -> Self {
        Self {
            coeffs: SoaCoeffs::build(models.vf_table(), models.dynamic_model()),
        }
    }

    /// The flattened coefficient tables.
    pub fn coeffs(&self) -> &SoaCoeffs {
        &self.coeffs
    }

    /// Computes the full core × VF-state grid for one record: each
    /// core's [`CoreProjection`] plus the per-state NB dynamic power
    /// accumulator, exactly as the per-cell walk produces them.
    ///
    /// `memory_factor` and `nb_dyn_scale` are the §V-C2 NB-state
    /// assumptions (1.0 at the stock NB point). `models` must be the
    /// bundle this projector was built from.
    ///
    /// # Errors
    ///
    /// The same errors, in the same order, as the per-cell walk:
    /// invalid memory factor, non-finite counts, non-positive
    /// frequencies, degenerate CPI decompositions, and non-finite
    /// Eq. 3 sums. Out-of-range CU assignments surface as
    /// [`Error::InvalidInput`] rather than a panic.
    pub fn grid(
        &self,
        models: &TrainedModels,
        record: &IntervalRecord,
        memory_factor: f64,
        nb_dyn_scale: f64,
        clock: &mut StageClock<'_>,
    ) -> Result<(Vec<CoreProjection>, Vec<f64>)> {
        let coeffs = &self.coeffs;
        let table = models.vf_table();
        let dynamic = models.dynamic_model();
        let cores_per_cu = models.topology().cores_per_cu();
        let n_vf = coeffs.len();
        let nb_weights = coeffs.nb_weights();

        let mut cores = Vec::with_capacity(record.samples.len());
        let mut nb_dynamic_by_vf = vec![0.0; n_vf];
        // Row buffers, reused across cores.
        let mut cpi_row = vec![0.0_f64; n_vf];
        let mut ips_row = vec![0.0_f64; n_vf];

        for (i, sample) in record.samples.iter().enumerate() {
            let cu = i / cores_per_cu;
            let from_idx = record
                .cu_vf
                .get(cu)
                .ok_or_else(|| {
                    Error::InvalidInput(format!(
                        "core {i} needs a VF assignment for CU {cu}, got {}",
                        record.cu_vf.len()
                    ))
                })?
                .index();
            let (from_ghz, from_hz) =
                match (coeffs.to_ghz().get(from_idx), coeffs.to_hz().get(from_idx)) {
                    (Some(g), Some(h)) => (*g, *h),
                    _ => {
                        return Err(Error::InvalidInput(format!(
                            "CU {cu} assigned VF state index {from_idx} \
                         of a {n_vf}-state ladder"
                        )))
                    }
                };
            let busy = sample.counts.get(EventId::RetiredInstructions) > 0.0;

            // Stage 1 (Eq. 1): validate in the scalar order, then fill
            // the row's CPI/IPS lanes in one branch-free pass.
            let row = clock.time(Stage::CpiPredict, || -> Result<Option<CpiRow>> {
                if memory_factor <= 0.0 || !memory_factor.is_finite() {
                    return Err(Error::InvalidInput("memory factor must be positive".into()));
                }
                if !sample.counts.is_finite() {
                    return Err(Error::InvalidInput("sample counts must be finite".into()));
                }
                if from_ghz <= 0.0 || coeffs.to_ghz().iter().any(|f| *f <= 0.0) {
                    return Err(Error::InvalidInput("frequencies must be positive".into()));
                }
                let inst = sample.counts.get(EventId::RetiredInstructions);
                if inst <= 0.0 {
                    return Ok(None);
                }
                let obs = CpiObservation::from_sample(sample, Gigahertz::new(from_ghz))?;
                let ccpi = obs.ccpi();
                let mcpi = obs.mcpi();
                let unhalted_rate =
                    sample.counts.get(EventId::CpuClocksNotHalted) / sample.duration.as_secs();
                let utilization = (unhalted_rate / from_hz).min(1.0);
                let lanes = cpi_row
                    .iter_mut()
                    .zip(ips_row.iter_mut())
                    .zip(coeffs.to_ghz().iter().zip(coeffs.to_hz()));
                for ((cpi_t, ips), (to_ghz, to_hz)) in lanes {
                    // Eq. 1: CPI(f') = CCPI + (MCPI · f'/f) · mf, then
                    // IPS = util · f'(Hz) / CPI(f') — op-for-op the
                    // scalar `project_cpi` sequence.
                    let pm_mf = mcpi * (to_ghz / from_ghz) * memory_factor;
                    *cpi_t = ccpi + pm_mf;
                    *ips = utilization * to_hz / *cpi_t;
                }
                Ok(Some(CpiRow {
                    source_cpi: obs.cpi(),
                }))
            })?;

            // Stage 2 (Observations 1–2): the whole row shares one
            // per-instruction fingerprint and one CPI − DSPI gap.
            let fingerprint = clock.time(Stage::EventPredict, || {
                row.map(|r| {
                    let inst = sample.counts.get(EventId::RetiredInstructions);
                    let mut per_inst = [0.0_f64; 8];
                    for (p, c) in per_inst.iter_mut().zip(sample.counts.as_array()) {
                        *p = c / inst;
                    }
                    let dspi_source = sample.counts.get(EventId::DispatchStalls) / inst;
                    Fingerprint {
                        per_inst,
                        gap: r.source_cpi - dspi_source,
                    }
                })
            });

            // Stage 3 (Eq. 3): reconstruct each cell's E1–E9 rates and
            // price them against the pre-scaled weight rows.
            let mut per_vf = Vec::with_capacity(n_vf);
            clock.time(Stage::Pdyn, || -> Result<()> {
                let lanes = table
                    .states()
                    .zip(coeffs.scaled_weight_rows())
                    .zip(cpi_row.iter().zip(ips_row.iter()))
                    .zip(nb_dynamic_by_vf.iter_mut());
                for (((vf, scaled_row), (&cpi_t, &ips)), nb_slot) in lanes {
                    // The scalar idle test is `ips <= 0.0`; NaN is
                    // *not* idle and must flow into the finite guard,
                    // hence the explicit `is_nan` disjunct.
                    let (cell_cpi, cell_ips, rates) = match fingerprint {
                        Some(fp) if ips.is_nan() || ips > 0.0 => {
                            let dspi_t = (cpi_t - fp.gap).max(0.0);
                            let pi = &fp.per_inst;
                            (
                                cpi_t,
                                ips,
                                [
                                    pi[0] * ips,
                                    pi[1] * ips,
                                    pi[2] * ips,
                                    pi[3] * ips,
                                    pi[4] * ips,
                                    pi[5] * ips,
                                    pi[6] * ips,
                                    pi[7] * ips,
                                    dspi_t * ips,
                                ],
                            )
                        }
                        // An idle cell prices a zero rate vector, like
                        // the scalar path (the multiply-adds still run
                        // so a degenerate weight poisons both paths
                        // identically).
                        _ => (0.0, 0.0, [0.0; 9]),
                    };
                    let (core_dyn, nb_dyn) =
                        dynamic.estimate_core_split_prescaled(&rates, scaled_row, nb_weights)?;
                    let nb_dyn = nb_dyn * nb_dyn_scale;
                    *nb_slot += nb_dyn.as_watts();
                    per_vf.push(CoreAtVf {
                        vf,
                        dynamic_power: core_dyn + nb_dyn,
                        ips: cell_ips,
                        cpi: cell_cpi,
                    });
                }
                Ok(())
            })?;

            cores.push(CoreProjection {
                core: CoreId(i),
                busy,
                per_vf,
            });
        }

        Ok((cores, nb_dynamic_by_vf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppep_obs::RecorderHandle;
    use ppep_rig::TrainingRig;
    use std::sync::OnceLock;

    fn models() -> &'static TrainedModels {
        static MODELS: OnceLock<TrainedModels> = OnceLock::new();
        MODELS.get_or_init(|| {
            TrainingRig::fx8320(42)
                .train_quick()
                .expect("training succeeds")
        })
    }

    fn record() -> IntervalRecord {
        use ppep_sim::chip::{ChipSimulator, SimConfig};
        use ppep_workloads::combos::instances;
        let mut sim = ChipSimulator::new(SimConfig::fx8320(42));
        sim.load_workload(&instances("433.milc", 3, 42));
        sim.run_intervals(4).pop().expect("simulated interval")
    }

    #[test]
    fn grid_covers_every_cell() {
        let m = models();
        let projector = BatchProjector::new(m);
        assert_eq!(projector.coeffs().len(), m.vf_table().len());
        let rec = RecorderHandle::noop();
        let mut clock = StageClock::new(&rec);
        let (cores, nb) = projector
            .grid(m, &record(), 1.0, 1.0, &mut clock)
            .expect("grid projects");
        assert_eq!(cores.len(), 8);
        assert_eq!(nb.len(), 5);
        for c in &cores {
            assert_eq!(c.per_vf.len(), 5);
        }
    }

    #[test]
    fn missing_cu_assignment_is_a_typed_error() {
        let m = models();
        let projector = BatchProjector::new(m);
        let rec = RecorderHandle::noop();
        let mut clock = StageClock::new(&rec);
        let mut r = record();
        r.cu_vf.truncate(1);
        let err = projector.grid(m, &r, 1.0, 1.0, &mut clock);
        assert!(matches!(err, Err(Error::InvalidInput(_))), "{err:?}");
    }
}

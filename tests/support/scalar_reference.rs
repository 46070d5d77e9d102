//! The scalar reference projection: the per-cell Fig. 5 pipeline the
//! batch kernel (`ppep_core::batch`) was derived from, kept here as
//! the differential oracle for `Ppep::project_nb`.
//!
//! It is the whole projection, not just the grid: the same record
//! validation, the cell-by-cell core × VF walk (Eq. 1 CPI through
//! `HwEventPredictor::project_cpi`, Eqs. 4–6 event reconstruction,
//! Eq. 3 Pdyn through `DynamicPowerModel::estimate_core_split`), then
//! the same Pidle and compose steps. Every value is produced by the
//! per-cell float sequence with nothing hoisted, so a batch kernel
//! that drifts by one bit, or reorders its error checks, disagrees
//! with it. The stage clock runs against a disabled recorder, as it
//! does in an engine without one, so the reference also does the same
//! work per projection as the engine's per-cell path did; the speedup
//! gate in `tests/kernel_equivalence.rs` times against that.

use ppep_core::ppe::{ChipPpe, CoreAtVf, CoreProjection, PpeProjection};
use ppep_models::event_pred::HwEventPredictor;
use ppep_models::trainer::TrainedModels;
use ppep_obs::{RecorderHandle, Stage, StageClock};
use ppep_pmc::EventId;
use ppep_telemetry::IntervalRecord;
use ppep_types::vf::NbVfState;
use ppep_types::{CoreId, Error, Joules, Result, Seconds, Watts};

/// The §V-C2 NB-DVFS study assumptions for the low NB point.
mod nb_low {
    /// Leading-load (memory) cycles grow 50%.
    pub const MEMORY_FACTOR: f64 = 1.5;
    /// NB idle power drops 40%.
    pub const IDLE_SCALE: f64 = 0.60;
    /// NB dynamic power drops 36%.
    pub const DYN_SCALE: f64 = 0.64;
}

/// `Ppep::project_nb`, computed cell by cell.
pub fn project_nb(
    models: &TrainedModels,
    record: &IntervalRecord,
    nb_target: NbVfState,
) -> Result<PpeProjection> {
    validate_record(models, record)?;
    let table = models.vf_table();
    let topo = models.topology();
    let cores_per_cu = topo.cores_per_cu();
    let (memory_factor, nb_idle_scale, nb_dyn_scale) = match nb_target {
        NbVfState::High => (1.0, 1.0, 1.0),
        NbVfState::Low => (nb_low::MEMORY_FACTOR, nb_low::IDLE_SCALE, nb_low::DYN_SCALE),
    };

    let recorder = RecorderHandle::noop();
    let mut clock = StageClock::new(&recorder);

    let (cores, nb_dynamic_by_vf) = grid(models, record, memory_factor, nb_dyn_scale, &mut clock)?;
    let work_instructions: f64 = record
        .samples
        .iter()
        .map(|s| s.counts.get(EventId::RetiredInstructions))
        .sum();

    // CU activity pattern for the PG idle path.
    let cu_active: Vec<bool> = cores
        .chunks(cores_per_cu)
        .map(|cu| cu.iter().any(|c| c.busy))
        .collect();
    let any_active = cu_active.iter().any(|b| *b);

    let mut chip = Vec::with_capacity(table.len());
    for vf in table.states() {
        let dynamic_total: Watts = clock.time(Stage::Compose, || {
            cores.iter().map(|c| c.at(vf).dynamic_power).sum()
        });
        let (nb_idle, idle_total) = clock.time(Stage::Pidle, || -> Result<(Watts, Watts)> {
            // NB idle share, separable only with the PG decomposition.
            let nb_idle = match models.chip_power().pg_model() {
                Some(pg) if any_active => pg.pidle_nb(vf)? * nb_idle_scale,
                _ => Watts::ZERO,
            };
            let idle_total = match models.chip_power().pg_model() {
                Some(pg) => {
                    let stock = pg.chip_idle_pg_enabled(&cu_active, &vec![vf; topo.cu_count()])?;
                    // Replace the stock NB idle contribution with the
                    // scaled one.
                    if any_active {
                        stock - pg.pidle_nb(vf)? + nb_idle
                    } else {
                        stock
                    }
                }
                None => models
                    .idle_model()
                    .estimate(table.point(vf).voltage, record.temperature)?,
            };
            Ok((nb_idle, idle_total))
        })?;
        clock.time(Stage::Compose, || {
            let power = idle_total + dynamic_total;
            let nb_power = nb_idle + Watts::new(nb_dynamic_by_vf[vf.index()]);
            let ips: f64 = cores.iter().map(|c| c.at(vf).ips).sum();
            let (time_for_work, energy, edp) = if ips > 0.0 && work_instructions > 0.0 {
                let t = work_instructions / ips;
                let e = power.as_watts() * t;
                (Seconds::new(t), Joules::new(e), e * t)
            } else {
                // Idle chip: report the decision interval as the work
                // unit so power comparisons still make sense.
                let t = record.duration.as_secs();
                let e = power.as_watts() * t;
                (Seconds::new(t), Joules::new(e), e * t)
            };
            chip.push(ChipPpe {
                vf,
                power,
                nb_power,
                ips,
                time_for_work,
                energy,
                edp,
            });
        });
    }
    clock.flush(record.index.0);

    Ok(PpeProjection {
        interval: record.index,
        temperature: record.temperature,
        source_vf: record.cu_vf.clone(),
        cores,
        chip,
        work_instructions,
    })
}

/// The record checks `Ppep::project_nb` runs before any grid walk,
/// with the same messages in the same order.
fn validate_record(models: &TrainedModels, record: &IntervalRecord) -> Result<()> {
    if record.nb_state == NbVfState::Low {
        return Err(Error::InvalidInput(
            "record measured at the low NB point; projections start \
             from the stock NB point"
                .into(),
        ));
    }
    let cores_per_cu = models.topology().cores_per_cu();
    let table_len = models.vf_table().len();
    let needed_cus = record.samples.len().div_ceil(cores_per_cu);
    if record.cu_vf.len() < needed_cus {
        return Err(Error::InvalidInput(format!(
            "{} per-CU VF assignments for {} sampled cores \
             ({needed_cus} CUs of {cores_per_cu})",
            record.cu_vf.len(),
            record.samples.len()
        )));
    }
    for (cu, vf) in record.cu_vf.iter().take(needed_cus).enumerate() {
        if vf.index() >= table_len {
            return Err(Error::InvalidInput(format!(
                "CU {cu} assigned VF state index {} of a \
                 {table_len}-state ladder",
                vf.index()
            )));
        }
    }
    Ok(())
}

/// The per-cell grid walk: every (core, VF state) cell re-derives its
/// CPI, events and dynamic power from the raw sample.
fn grid(
    models: &TrainedModels,
    record: &IntervalRecord,
    memory_factor: f64,
    nb_dyn_scale: f64,
    clock: &mut StageClock<'_>,
) -> Result<(Vec<CoreProjection>, Vec<f64>)> {
    let predictor = HwEventPredictor::new();
    let table = models.vf_table();
    let cores_per_cu = models.topology().cores_per_cu();
    let dynamic = models.dynamic_model();
    let mut cores = Vec::with_capacity(record.samples.len());
    let mut nb_dynamic_by_vf = vec![0.0; table.len()];
    for (i, sample) in record.samples.iter().enumerate() {
        let cu = i / cores_per_cu;
        let from = table.point(record.cu_vf[cu]);
        let busy = sample.counts.get(EventId::RetiredInstructions) > 0.0;
        let mut per_vf = Vec::with_capacity(table.len());
        for vf in table.states() {
            let to = table.point(vf);
            let projected = clock.time(Stage::CpiPredict, || {
                predictor.project_cpi(sample, from, to, memory_factor)
            })?;
            let predicted = clock.time(Stage::EventPredict, || {
                predictor.reconstruct_events(sample, &projected)
            })?;
            let (core_dyn, nb_dyn) = clock.time(Stage::Pdyn, || {
                dynamic.estimate_core_split(&predicted.power_rates(), to.voltage)
            })?;
            let nb_dyn = nb_dyn * nb_dyn_scale;
            nb_dynamic_by_vf[vf.index()] += nb_dyn.as_watts();
            per_vf.push(CoreAtVf {
                vf,
                dynamic_power: core_dyn + nb_dyn,
                ips: predicted.ips,
                cpi: predicted.cpi,
            });
        }
        cores.push(CoreProjection {
            core: CoreId(i),
            busy,
            per_vf,
        });
    }
    Ok((cores, nb_dynamic_by_vf))
}

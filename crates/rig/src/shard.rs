//! Zero-dependency scoped-thread sharding for the simulator sweeps.
//!
//! Every sweep the offline flow and the experiments run — idle
//! heat/cool traces, α calibration, training runs, the PG sweep, the
//! paper-scale `(combo, vf)` rosters — is a list of independent cells,
//! each of which builds its own freshly seeded simulator. A cell's
//! result is therefore a pure function of the cell. [`map`] exploits
//! that: a shared atomic cursor hands out cell indices to `jobs`
//! workers, each worker writes its result into the slot for that
//! index, and the assembled vector is identical for any worker count.
//!
//! The calling thread is one of the `jobs` workers, so only `jobs - 1`
//! threads are spawned and `jobs = 1` spawns none. Beyond saving a
//! thread that would only wait at the join, this bounds peak memory:
//! glibc gives each thread that allocates its own malloc arena, and
//! sweeps that each spawned all `jobs` threads grew the reproduction's
//! peak RSS by several arenas.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// The machine's available parallelism (1 when unknown).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `task` once on every cell, sharded across `jobs` workers (the
/// calling thread and `jobs - 1` scoped threads), and returns the
/// results in cell order.
///
/// `task` must be a pure function of its cell: workers claim cells
/// from a shared cursor, so *which* worker runs a given cell — and in
/// what order — is nondeterministic, but the assembled output is not.
/// `jobs` is clamped to `1..=cells.len()`. A panicking task propagates
/// to the caller once every worker has stopped.
pub fn map<C, T, F>(cells: &[C], jobs: usize, task: F) -> Vec<T>
where
    C: Sync,
    T: Send,
    F: Fn(&C) -> T + Sync,
{
    let jobs = jobs.clamp(1, cells.len().max(1));
    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new(cells.iter().map(|_| None).collect());
    let work = || loop {
        // Relaxed: the cursor publishes no data; results travel
        // through the mutex and the scope's join.
        let index = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(cell) = cells.get(index) else {
            break;
        };
        let value = task(cell);
        // Tasks run outside the lock and a slot store cannot panic, so
        // the slots are valid even after another worker's task panics.
        let mut slots = slots.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(slot) = slots.get_mut(index) {
            *slot = Some(value);
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..jobs {
            scope.spawn(work);
        }
        work();
    });
    slots
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .flatten()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_cell_order_for_any_job_count() {
        let cells: Vec<usize> = (0..37).collect();
        let expected: Vec<usize> = cells.iter().map(|i| i * i).collect();
        for jobs in [0, 1, 2, 3, 8, 64] {
            assert_eq!(map(&cells, jobs, |i| i * i), expected, "jobs = {jobs}");
        }
    }

    #[test]
    fn one_job_runs_every_cell_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ran_on = map(&[(); 9], 1, |_| std::thread::current().id());
        assert_eq!(ran_on.len(), 9);
        assert!(ran_on.iter().all(|id| *id == caller));
    }

    #[test]
    fn the_calling_thread_is_one_of_the_workers() {
        // Each spawned worker blocks in its cell until the caller has
        // run one, so the map only finishes if the caller claims a
        // cell itself instead of waiting at the join.
        let caller = std::thread::current().id();
        let (tx, rx) = std::sync::mpsc::channel();
        let (tx, rx) = (Mutex::new(tx), Mutex::new(rx));
        let ran_on = map(&[(); 3], 3, |_| {
            let me = std::thread::current().id();
            if me == caller {
                let tx = tx.lock().expect("no worker panics holding it");
                for _ in 1..3 {
                    tx.send(()).expect("the receiver outlives the map");
                }
            } else {
                rx.lock()
                    .expect("no worker panics holding it")
                    .recv_timeout(std::time::Duration::from_secs(10))
                    .expect("the calling thread runs a cell");
            }
            me
        });
        assert!(ran_on.contains(&caller));
    }

    #[test]
    fn zero_cells_is_fine() {
        assert!(map(&[] as &[usize], 8, |i| *i).is_empty());
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }
}

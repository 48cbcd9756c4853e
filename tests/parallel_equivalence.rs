//! Parallel execution must be invisible in results: any `--jobs` value
//! produces byte-identical figures, because every simulation cell owns all
//! of its state and results are reassembled in input order.

use std::sync::{Mutex, MutexGuard};

use mda_bench::experiments::{fig13, run_kernel, table1};
use mda_bench::parallel::{self, par_map, Cell};
use mda_bench::Scale;
use mda_sim::{HierarchyKind, SimReport};
use mda_workloads::Kernel;

/// Serializes the tests that set the process-global job count or read the
/// process-global cell counters.
static GLOBAL_JOBS: Mutex<()> = Mutex::new(());

fn lock_jobs() -> MutexGuard<'static, ()> {
    GLOBAL_JOBS.lock().unwrap_or_else(|e| e.into_inner())
}

/// The figures pipeline end to end: rendering with 1 worker and with 4
/// workers yields the same strings and the same structured tables.
///
/// Both job counts run inside one test body because [`parallel::set_jobs`]
/// is process-global; the override is cleared before asserting. The memo
/// of simulated cells is cleared between the runs, so the 4-worker run
/// simulates all 21 fig13 cells instead of reusing the 1-worker reports.
#[test]
fn figures_render_identically_for_any_job_count() {
    let _jobs = lock_jobs();
    parallel::set_jobs(1);
    let table1_seq = table1::render(Scale::Tiny);
    let fig13_seq = fig13::run(Scale::Tiny);
    parallel::clear_memo();
    parallel::take_simulated_count();
    parallel::set_jobs(4);
    let table1_par = table1::render(Scale::Tiny);
    let fig13_par = fig13::run(Scale::Tiny);
    parallel::set_jobs(0);
    assert_eq!(parallel::take_simulated_count(), 21, "the 4-worker run reused memoized cells");

    assert_eq!(table1_seq, table1_par);
    assert_eq!(fig13_seq, fig13_par, "fig13 structured results diverged");
    assert_eq!(fig13_seq.render(), fig13_par.render());
    assert_eq!(fig13_seq.to_csv(), fig13_par.to_csv());
}

/// Every kernel × design cell simulated by [`par_map`] on a 4-worker pool
/// reproduces the 1-worker (inline sequential) result, in input order.
#[test]
fn worker_pool_reproduces_sequential_cells() {
    let cfg = Scale::Tiny.system(HierarchyKind::P2L2Sparse);
    let cells = Kernel::all().map(|k| Cell::new(k.name(), k, 24, cfg.clone()));
    let _jobs = lock_jobs();
    parallel::set_jobs(1);
    let sequential = par_map(&cells, |c| run_kernel(c.kernel, c.n, &c.config));
    parallel::set_jobs(4);
    let parallel = par_map(&cells, |c| run_kernel(c.kernel, c.n, &c.config));
    parallel::set_jobs(0);
    assert_eq!(sequential, parallel);
    for (cell, report) in cells.iter().zip(&sequential) {
        assert_eq!(report.workload, cell.label, "results out of input order");
    }
}

/// The types crossing thread boundaries are `Send`/`Sync` by construction
/// (compile-time assertion).
#[test]
fn simulation_results_cross_threads_safely() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SimReport>();
    assert_send_sync::<Cell>();
}

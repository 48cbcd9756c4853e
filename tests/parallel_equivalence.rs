//! Parallel execution must be invisible in results: any `--jobs` value
//! produces byte-identical figures, because every simulation cell owns all
//! of its state and results are reassembled in input order.

use mda_bench::experiments::{fig13, run_kernel, table1};
use mda_bench::parallel::{self, par_map_with, Cell};
use mda_bench::Scale;
use mda_sim::{HierarchyKind, SimReport};
use mda_workloads::Kernel;

/// The figures pipeline end to end: rendering with 1 worker and with 4
/// workers yields the same strings and the same structured tables.
///
/// Both job counts run inside one test body because [`parallel::set_jobs`]
/// is process-global; the override is cleared before asserting. The memo
/// of simulated cells is cleared between the runs, so the 4-worker run
/// simulates all 21 fig13 cells instead of reusing the 1-worker reports.
#[test]
fn figures_render_identically_for_any_job_count() {
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

/// Every kernel × design cell simulated on a 4-worker pool reproduces the
/// inline sequential result, in input order.
#[test]
fn worker_pool_reproduces_sequential_cells() {
    let cfg = Scale::Tiny.system(HierarchyKind::P2L2Sparse);
    let cells: Vec<Cell> = Kernel::all()
        .iter()
        .map(|k| Cell::new(k.name(), *k, 24, cfg.clone()))
        .collect();
    let sequential = par_map_with(&cells, 1, |c| run_kernel(c.kernel, c.n, &c.config));
    let parallel = par_map_with(&cells, 4, |c| run_kernel(c.kernel, c.n, &c.config));
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

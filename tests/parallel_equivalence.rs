//! Parallel execution must be invisible in results: any `--jobs` value
//! produces byte-identical figures, because every simulation cell owns all
//! of its state and results are reassembled in input order.

use mda_bench::experiments::{fig13, run_kernel};
use mda_bench::parallel::{Cell, Harness};
use mda_bench::Scale;
use mda_sim::{HierarchyKind, SimReport};
use mda_workloads::Kernel;

/// The figures pipeline end to end: rendering with 1 worker and with 4
/// workers yields the same strings and the same structured tables. Each
/// run has its own harness, so the 4-worker run simulates all 21 fig13
/// cells instead of reusing the 1-worker reports.
#[test]
fn figures_render_identically_for_any_job_count() {
    let fig13_seq = fig13::run(&Harness::new(1, None), Scale::Tiny);
    let four = Harness::new(4, None);
    let fig13_par = fig13::run(&four, Scale::Tiny);
    assert_eq!(four.take_counts(), (21, 21), "the 4-worker run: submitted, simulated");

    assert_eq!(fig13_seq, fig13_par, "fig13 structured results diverged");
    assert_eq!(fig13_seq.render(), fig13_par.render());
    assert_eq!(fig13_seq.to_csv(), fig13_par.to_csv());
}

/// Every kernel × design cell simulated by [`Harness::par_map`] on a
/// 4-worker pool reproduces the 1-worker (inline sequential) result, in
/// input order.
#[test]
fn worker_pool_reproduces_sequential_cells() {
    let cfg = Scale::Tiny.system(HierarchyKind::P2L2Sparse);
    let cells = Kernel::all().map(|k| Cell::new(k.name(), k, 24, cfg.clone()));
    let [sequential, parallel] = [1, 4].map(|jobs| {
        Harness::new(jobs, None).par_map(&cells, |c| run_kernel(c.kernel, c.n, &c.config))
    });
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

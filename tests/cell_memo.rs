//! Each distinct cell is simulated once per process: `run_cells` answers a
//! repeated `(kernel, n, SystemConfig)` from a process-wide memo, with a
//! disabled fault model canonicalized to the fault-free one.
//!
//! One test body, because the memo and the cell counters are
//! process-global: a second test running alongside would share both.

use mda_bench::experiments::{self, ext_reliability, run_kernel, Output};
use mda_bench::parallel::{self, run_cells, Cell};
use mda_bench::Scale;
use mda_sim::{FaultConfig, HierarchyKind};
use mda_workloads::Kernel;

/// Runs experiment `name` at tiny scale; returns its output and the cells
/// it submitted and simulated.
fn run(name: &str) -> (Output, u64, u64) {
    let (_, run) = experiments::find(name).expect("known experiment");
    parallel::take_cell_count();
    parallel::take_simulated_count();
    let out = run(Scale::Tiny);
    (out, parallel::take_cell_count(), parallel::take_simulated_count())
}

/// Runs `cells` through `run_cells`; returns the outcomes and the cells
/// simulated.
fn run_counted(cells: &[Cell]) -> (Vec<mda_bench::CellResult>, u64) {
    parallel::take_simulated_count();
    let out = run_cells(cells);
    (out, parallel::take_simulated_count())
}

fn assert_same_output(name: &str, hit: &Output, fresh: &Output) {
    assert_eq!(hit.text, fresh.text, "{name}: memo hits changed the text");
    assert_eq!(hit.csvs, fresh.csvs, "{name}: memo hits changed the CSVs");
}

#[test]
fn each_distinct_cell_is_simulated_once() {
    parallel::clear_memo();

    // fig14 and ext_energy submit the same 28-cell design × kernel grid.
    let (_, submitted, simulated) = run("fig14");
    assert_eq!((submitted, simulated), (28, 28), "fig14: submitted, simulated");
    let (energy_hit, submitted, simulated) = run("ext_energy");
    assert_eq!((submitted, simulated), (28, 0), "ext_energy: submitted, simulated");
    // ext_reliability's three ber=0 cells are fig14's fault-free sgemm
    // runs: a zero-rate fault model canonicalizes to the fault-free one.
    let (reliability_hit, submitted, simulated) = run("ext_reliability");
    assert_eq!((submitted, simulated), (12, 9), "ext_reliability: submitted, simulated");

    // A memo hit renders exactly like a fresh simulation.
    parallel::clear_memo();
    let (energy_fresh, _, simulated) = run("ext_energy");
    assert_eq!(simulated, 28, "ext_energy after clear_memo");
    assert_same_output("ext_energy", &energy_hit, &energy_fresh);
    parallel::clear_memo();
    let (reliability_fresh, _, simulated) = run("ext_reliability");
    assert_eq!(simulated, 12, "ext_reliability after clear_memo");
    assert_same_output("ext_reliability", &reliability_hit, &reliability_fresh);

    // The memo now holds ext_reliability's fault-free and faulty sgemm
    // cells. A non-zero BER must never receive the fault-free report, a
    // different fault seed is a different cell, and an invalid zero-rate
    // model (a negative rate) must fail validation rather than hit.
    let n = Scale::Tiny.input();
    let kind = HierarchyKind::P1L2DifferentSet;
    let plain = Scale::Tiny.system(kind);
    let faulty = plain.clone().with_faults(ext_reliability::fault_config(1e-3));
    let reseeded =
        plain.clone().with_faults(FaultConfig::uniform(7, 1e-3, 1e-3 / 8.0, 1e-3 / 16.0));
    let invalid = plain.clone().with_faults(FaultConfig::uniform(7, -1.0, 0.0, 0.0));
    let (out, simulated) = run_counted(&[
        Cell::new("plain", Kernel::Sgemm, n, plain),
        Cell::new("faulty", Kernel::Sgemm, n, faulty.clone()),
        Cell::new("reseeded", Kernel::Sgemm, n, reseeded),
        Cell::new("invalid", Kernel::Sgemm, n, invalid),
    ]);
    let fault_free = out[0].as_ref().expect("fault-free cell");
    let with_faults = out[1].as_ref().expect("faulty cell");
    let with_other_seed = out[2].as_ref().expect("reseeded cell");
    assert_eq!(with_faults, &run_kernel(Kernel::Sgemm, n, &faulty));
    assert!(with_faults.mem.reliability_active(), "the 1e-3 cell got a fault-free report");
    assert_ne!(with_faults, fault_free);
    assert!(with_other_seed.mem.reliability_active(), "the reseeded cell got a fault-free report");
    assert_ne!(with_other_seed, with_faults, "the reseeded cell got the other seed's report");
    let failure = out[3].as_ref().expect_err("a negative rate must not hit the fault-free report");
    assert_eq!(failure.label, "invalid");
    assert_eq!(simulated, 2, "only the reseeded and the invalid cell miss");

    // Duplicates inside one batch are simulated once; cells differing only
    // in `n` are distinct.
    parallel::clear_memo();
    let base = Scale::Tiny.system(HierarchyKind::Baseline1P1L);
    let (out, simulated) = run_counted(&[
        Cell::new("a", Kernel::Ssyrk, 24, base.clone()),
        Cell::new("b", Kernel::Ssyrk, 24, base.clone()),
        Cell::new("smaller", Kernel::Ssyrk, 16, base.clone()),
        Cell::new("c", Kernel::Ssyrk, 24, base.clone()),
    ]);
    assert_eq!(simulated, 2, "two distinct cells in a batch of four");
    let reports: Vec<_> = out.into_iter().map(|r| r.expect("healthy cell")).collect();
    assert_eq!(reports[0], run_kernel(Kernel::Ssyrk, 24, &base));
    assert_eq!(reports[1], reports[0]);
    assert_eq!(reports[3], reports[0]);
    assert_eq!(reports[2], run_kernel(Kernel::Ssyrk, 16, &base));
    assert_ne!(reports[2], reports[0]);

    // A degraded cell is never memoized: the next batch simulates it again.
    let mut broken = base;
    broken.mem.channels = 0;
    for attempt in 0..2 {
        let (out, simulated) =
            run_counted(&[Cell::new("broken", Kernel::Ssyrk, 16, broken.clone())]);
        assert!(out[0].is_err(), "attempt {attempt}: an invalid config must degrade");
        assert_eq!(simulated, 1, "attempt {attempt}: degraded cells are simulated again");
    }
}

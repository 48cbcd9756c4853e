//! Each distinct cell is simulated once per harness: `run_cells` answers a
//! repeated `(kernel, n, SystemConfig)` from the harness memo, with a
//! disabled fault model canonicalized to the fault-free one.

use mda_bench::experiments::{self, ext_reliability, run_kernel, Output};
use mda_bench::parallel::{Cell, Harness};
use mda_bench::Scale;
use mda_sim::{FaultConfig, HierarchyKind};
use mda_workloads::Kernel;

/// Runs experiment `name` at tiny scale on `harness`; returns its output
/// and the cells it submitted and simulated.
fn run(harness: &Harness, name: &str) -> (Output, (u64, u64)) {
    let (_, run) = experiments::find(name).expect("known experiment");
    let out = run(harness, Scale::Tiny);
    (out, harness.take_counts())
}

/// Runs `cells` on `harness`; returns the outcomes and the cells simulated.
fn run_counted(harness: &Harness, cells: &[Cell]) -> (Vec<mda_bench::CellResult>, u64) {
    let out = harness.run_cells(cells);
    (out, harness.take_counts().1)
}

fn assert_same_output(name: &str, hit: &Output, fresh: &Output) {
    assert_eq!(hit.text, fresh.text, "{name}: memo hits changed the text");
    assert_eq!(hit.csvs, fresh.csvs, "{name}: memo hits changed the CSVs");
}

#[test]
fn each_distinct_cell_is_simulated_once() {
    let harness = Harness::new(2, None);
    // fig14 and ext_energy submit the same 28-cell design × kernel grid.
    let (_, counts) = run(&harness, "fig14");
    assert_eq!(counts, (28, 28), "fig14: submitted, simulated");
    let (energy_hit, counts) = run(&harness, "ext_energy");
    assert_eq!(counts, (28, 0), "ext_energy: submitted, simulated");
    // ext_reliability's three ber=0 cells are fig14's fault-free sgemm
    // runs: a zero-rate fault model canonicalizes to the fault-free one.
    let (reliability_hit, counts) = run(&harness, "ext_reliability");
    assert_eq!(counts, (12, 9), "ext_reliability: submitted, simulated");

    // A memo hit renders exactly like a fresh simulation.
    let (energy_fresh, counts) = run(&Harness::new(2, None), "ext_energy");
    assert_eq!(counts, (28, 28), "ext_energy on a fresh harness");
    assert_same_output("ext_energy", &energy_hit, &energy_fresh);
    let (reliability_fresh, counts) = run(&Harness::new(2, None), "ext_reliability");
    assert_eq!(counts, (12, 12), "ext_reliability on a fresh harness");
    assert_same_output("ext_reliability", &reliability_hit, &reliability_fresh);
}

/// With the fault-free and a faulty sgemm cell memoized, a non-zero BER
/// never receives the fault-free report, a different fault seed is a
/// different cell, and an invalid zero-rate model (a negative rate) fails
/// validation rather than hit.
#[test]
fn fault_models_key_distinct_cells() {
    let n = Scale::Tiny.input();
    let plain = Scale::Tiny.system(HierarchyKind::P1L2DifferentSet);
    let faulty = plain.clone().with_faults(ext_reliability::fault_config(1e-3));
    let reseeded =
        plain.clone().with_faults(FaultConfig::uniform(7, 1e-3, 1e-3 / 8.0, 1e-3 / 16.0));
    let invalid = plain.clone().with_faults(FaultConfig::uniform(7, -1.0, 0.0, 0.0));
    let harness = Harness::new(2, None);
    let memoized = [
        Cell::new("plain", Kernel::Sgemm, n, plain),
        Cell::new("faulty", Kernel::Sgemm, n, faulty.clone()),
    ];
    assert_eq!(run_counted(&harness, &memoized).1, 2, "the memoized cells");
    let (out, simulated) = run_counted(
        &harness,
        &[
            memoized[0].clone(),
            memoized[1].clone(),
            Cell::new("reseeded", Kernel::Sgemm, n, reseeded),
            Cell::new("invalid", Kernel::Sgemm, n, invalid),
        ],
    );
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
}

/// Duplicates inside one batch are simulated once; cells differing only in
/// `n` are distinct.
#[test]
fn duplicates_in_a_batch_are_simulated_once() {
    let base = Scale::Tiny.system(HierarchyKind::Baseline1P1L);
    let (out, simulated) = run_counted(
        &Harness::new(2, None),
        &[
            Cell::new("a", Kernel::Ssyrk, 24, base.clone()),
            Cell::new("b", Kernel::Ssyrk, 24, base.clone()),
            Cell::new("smaller", Kernel::Ssyrk, 16, base.clone()),
            Cell::new("c", Kernel::Ssyrk, 24, base.clone()),
        ],
    );
    assert_eq!(simulated, 2, "two distinct cells in a batch of four");
    let reports: Vec<_> = out.into_iter().map(|r| r.expect("healthy cell")).collect();
    assert_eq!(reports[0], run_kernel(Kernel::Ssyrk, 24, &base));
    assert_eq!(reports[1], reports[0]);
    assert_eq!(reports[3], reports[0]);
    assert_eq!(reports[2], run_kernel(Kernel::Ssyrk, 16, &base));
    assert_ne!(reports[2], reports[0]);
}

/// A degraded cell is never memoized: the next batch simulates it again.
#[test]
fn degraded_cells_are_never_memoized() {
    let mut broken = Scale::Tiny.system(HierarchyKind::Baseline1P1L);
    broken.mem.channels = 0;
    let harness = Harness::new(2, None);
    for attempt in 0..2 {
        let (out, simulated) =
            run_counted(&harness, &[Cell::new("broken", Kernel::Ssyrk, 16, broken.clone())]);
        assert!(out[0].is_err(), "attempt {attempt}: an invalid config must degrade");
        assert_eq!(simulated, 1, "attempt {attempt}: degraded cells are simulated again");
    }
}

/// The `MDA_PANIC_CELL` drill runs before the memo: a drilled label
/// degrades even when its key is memoized, under its own label, while its
/// neighbours' reports stay exact.
#[test]
fn drilled_cell_degrades_even_when_memoized() {
    let cfg = Scale::Tiny.system(HierarchyKind::P2L2Sparse);
    let harness = Harness::new(2, Some("sgemm".to_string()));
    // Memoize the sgemm key under a label the drill does not match.
    let (warm, simulated) =
        run_counted(&harness, &[Cell::new("warm", Kernel::Sgemm, 24, cfg.clone())]);
    assert!(warm[0].is_ok(), "an undrilled label simulates");
    assert_eq!(simulated, 1);
    let cells = [Kernel::Ssyrk, Kernel::Sgemm, Kernel::Sobel]
        .map(|k| Cell::new(format!("drill/{}", k.name()), k, 24, cfg.clone()));
    let (out, simulated) = run_counted(&harness, &cells);
    assert_eq!(simulated, 2, "only the neighbours simulate");
    let failure = out[1].as_ref().expect_err("the drilled cell degrades despite the memo");
    assert_eq!(failure.label, "drill/sgemm");
    assert!(failure.message.contains("MDA_PANIC_CELL"), "{}", failure.message);
    for i in [0, 2] {
        let report = out[i].as_ref().expect("neighbour intact");
        assert_eq!(report, &run_kernel(cells[i].kernel, 24, &cfg), "{}", cells[i].label);
    }
}

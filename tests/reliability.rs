//! End-to-end reliability invariants: the fault subsystem must be exactly
//! free when disabled, and exactly reproducible when enabled.

use mda_bench::experiments::{ext_reliability, run_kernel};
use mda_bench::parallel::Harness;
use mda_bench::Scale;
use mda_sim::{FaultConfig, HierarchyKind};
use mda_workloads::Kernel;

/// With every fault rate at zero, the full simulation pipeline produces a
/// report identical to a run with no fault configuration at all, for every
/// design and whatever the model's seed, retry, spare and remap fields —
/// the invariant that keeps all pre-existing figures and CSVs
/// byte-identical, and that lets `run_cells` canonicalize every disabled
/// fault model to `FaultConfig::none()`.
#[test]
fn zero_rates_leave_every_design_report_untouched() {
    let tuned = FaultConfig {
        max_write_retries: 9,
        retry_backoff: 1,
        spare_tiles_per_bank: 0,
        remap_penalty: 97,
        ..FaultConfig::uniform(0x0BAD_5EED, 0.0, 0.0, 0.0)
    };
    let zero_rate_models = [
        (24, vec![FaultConfig::uniform(0xDEAD_BEEF, 0.0, 0.0, 0.0), tuned]),
        (Scale::Tiny.input(), vec![ext_reliability::fault_config(0.0)]),
    ];
    for kind in HierarchyKind::all() {
        let plain = Scale::Tiny.system(kind);
        for (n, models) in &zero_rate_models {
            let a = run_kernel(Kernel::Sgemm, *n, &plain);
            assert!(!a.render().contains("reliability:"), "fault-free report grew a line");
            for faults in models {
                let b = run_kernel(Kernel::Sgemm, *n, &plain.clone().with_faults(*faults));
                assert_eq!(
                    a,
                    b,
                    "{} n={n}: zero-rate faults {faults:?} perturbed the report",
                    kind.name()
                );
                assert!(!b.mem.reliability_active(), "{}: phantom reliability events", kind.name());
            }
        }
    }
}

/// The reliability sweep is reproducible across worker counts: a fixed
/// fault seed with nonzero rates yields identical structured results and
/// identical rendered tables at `--jobs 1` and `--jobs 4`. Each run has its
/// own harness, so the 4-worker run simulates all 12 cells.
#[test]
fn reliability_sweep_is_identical_across_worker_counts() {
    let seq = ext_reliability::run(&Harness::new(1, None), Scale::Tiny);
    let four = Harness::new(4, None);
    let par = ext_reliability::run(&four, Scale::Tiny);
    assert_eq!(four.take_counts(), (12, 12), "the 4-worker run: submitted, simulated");

    assert_eq!(seq, par, "fault injection diverged across worker counts");
    assert_eq!(seq.cycles.to_csv(), par.cycles.to_csv());
    assert_eq!(seq.retries.to_csv(), par.retries.to_csv());
    assert_eq!(seq.corrected.to_csv(), par.corrected.to_csv());
}

/// Nonzero rates actually exercise the machinery end to end: the report
/// carries retry/correction counters and renders the reliability line.
#[test]
fn nonzero_rates_surface_in_the_report() {
    let cfg = Scale::Tiny
        .system(HierarchyKind::P1L2DifferentSet)
        .with_faults(ext_reliability::fault_config(1e-3));
    // Tiny-scale input (64×64): large enough that dirty lines are evicted
    // and written back, so the write-verify path actually runs.
    let report = run_kernel(Kernel::Sgemm, Scale::Tiny.input(), &cfg);
    assert!(report.mem.reliability_active(), "no fault events at 1e-3 write BER");
    assert!(report.mem.write_retries > 0, "verify-retry never fired");
    let rendered = report.render();
    assert!(rendered.contains("reliability:"), "missing reliability line:\n{rendered}");
}

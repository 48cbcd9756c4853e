//! The paper's qualitative claims, asserted against the tiny-scale
//! reproduction (the scaled/paper-scale numbers are recorded in
//! EXPERIMENTS.md; these tests pin the *shape* so regressions are caught in
//! CI time).

use mda_bench::Scale;
use mdacache::sim::{simulate, HierarchyKind, SystemConfig};
use mdacache::workloads::Kernel;

fn avg_normalized_cycles(kind: HierarchyKind) -> f64 {
    let mut total = 0.0;
    let kernels = Kernel::all();
    for kernel in kernels {
        let base_cfg = SystemConfig::tiny(HierarchyKind::Baseline1P1L);
        let src = kernel.build(Scale::Tiny.input());
        let base = simulate(src.as_ref(), &base_cfg);
        let r = simulate(src.as_ref(), &SystemConfig::tiny(kind));
        total += r.cycles as f64 / base.cycles as f64;
    }
    total / kernels.len() as f64
}

#[test]
fn headline_mda_designs_reduce_execution_time() {
    // Paper Sec. VII: 1P2L −64%, 1P2L_SameSet −72%, 2P2L −65% at the
    // smallest LLC. We require clear wins with the SameSet variant ahead,
    // without pinning exact magnitudes.
    let p1l2 = avg_normalized_cycles(HierarchyKind::P1L2DifferentSet);
    let same = avg_normalized_cycles(HierarchyKind::P1L2SameSet);
    let p2l2 = avg_normalized_cycles(HierarchyKind::P2L2Sparse);
    assert!(p1l2 < 0.7, "1P2L average {p1l2}");
    assert!(same < 0.7, "1P2L_SameSet average {same}");
    assert!(p2l2 < 0.7, "2P2L average {p2l2}");
    assert!(same < p1l2, "SameSet ({same}) should lead DifferentSet ({p1l2})");
}

#[test]
fn llc_accesses_and_memory_traffic_collapse() {
    // Paper Fig. 14: LLC accesses fall to ~20–22% and memory bytes to
    // ~15–21% of the baseline. Enforce a generous 60%/80% bound per kernel.
    for kernel in Kernel::all() {
        let base_cfg = SystemConfig::tiny(HierarchyKind::Baseline1P1L);
        let src = kernel.build(Scale::Tiny.input());
        let base = simulate(src.as_ref(), &base_cfg);
        let mda = simulate(src.as_ref(), &SystemConfig::tiny(HierarchyKind::P1L2DifferentSet));
        let acc = mda.llc_accesses() as f64 / base.llc_accesses().max(1) as f64;
        let bytes = mda.llc_memory_bytes() as f64 / base.llc_memory_bytes().max(1) as f64;
        assert!(acc < 0.6, "{kernel}: LLC accesses only fell to {acc:.2}");
        assert!(bytes < 0.8, "{kernel}: memory bytes only fell to {bytes:.2}");
    }
}

#[test]
fn bigger_llc_shrinks_the_gap_on_average() {
    // Paper Fig. 12: average benefits shrink as the LLC grows toward
    // holding the working set (64/65% reduction at 1 MB → 45/39% at 4 MB).
    // Individual kernels are noisy (set-conflict edge effects, exactly as
    // the paper observes around its 2 MB point), so this pins the average.
    use mda_bench::experiments::fig12;
    let sweep = Scale::Tiny.llc_sweep();
    let small = fig12::run_one(Scale::Tiny, sweep[0]);
    let large = fig12::run_one(Scale::Tiny, sweep[3]);
    for design in ["1P2L", "2P2L"] {
        let tight = small.average(design).expect("series");
        let roomy = large.average(design).expect("series");
        assert!(
            roomy > tight,
            "{design}: roomy LLC ({roomy:.3}) should narrow the win over a tight one ({tight:.3})"
        );
    }
}

#[test]
fn mda_on_slow_memory_beats_baseline_on_fast_memory() {
    // Paper Fig. 17: "1P2L, even with the baseline memory, outperforms
    // 1P1L-fast".
    let kernel = Kernel::Sgemm;
    let cfg_fastbase = SystemConfig::tiny(HierarchyKind::Baseline1P1L).with_fast_memory();
    let src = kernel.build(Scale::Tiny.input());
    let fast_base = simulate(src.as_ref(), &cfg_fastbase);
    let mda = simulate(src.as_ref(), &SystemConfig::tiny(HierarchyKind::P1L2DifferentSet));
    assert!(
        mda.cycles < fast_base.cycles,
        "1P2L on base memory ({}) vs 1P1L on fast memory ({})",
        mda.cycles,
        fast_base.cycles
    );
}

#[test]
fn write_asymmetry_changes_little() {
    // Paper Fig. 16: +20-cycle LLC writes cost ≈0.4% on average.
    let mut worst: f64 = 0.0;
    for kernel in Kernel::all() {
        let cfg = SystemConfig::tiny(HierarchyKind::P2L2Sparse);
        let src = kernel.build(Scale::Tiny.input());
        let sym = simulate(src.as_ref(), &cfg);
        let asym = simulate(src.as_ref(), &cfg.clone().with_llc_write_penalty(20));
        let delta = asym.cycles as f64 / sym.cycles as f64 - 1.0;
        worst = worst.max(delta);
    }
    assert!(worst < 0.15, "write asymmetry cost {worst:.3} is out of character");
}

#[test]
fn sobel_prefers_column_transfers_overwhelmingly() {
    // Paper Fig. 10 shows sobel as the most column-heavy kernel; verify it
    // translates to column-mode memory reads dominating.
    let cfg = SystemConfig::tiny(HierarchyKind::P1L2DifferentSet);
    let src = Kernel::Sobel.build(Scale::Tiny.input());
    let r = simulate(src.as_ref(), &cfg);
    assert!(
        r.mem.col_reads > r.mem.row_reads,
        "sobel: {} column vs {} row reads",
        r.mem.col_reads,
        r.mem.row_reads
    );
}

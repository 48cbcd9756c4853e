//! End-to-end integration: every kernel × every design point runs through
//! compiler → trace → hierarchy → memory with self-consistent results.

use mda_bench::Scale;
use mdacache::sim::{simulate, HierarchyKind, SystemConfig};
use mdacache::workloads::Kernel;

#[test]
fn every_kernel_runs_on_every_design() {
    for kernel in Kernel::all() {
        for kind in HierarchyKind::all() {
            let cfg = SystemConfig::tiny(kind);
            let src = kernel.build(Scale::Tiny.input());
            let r = simulate(src.as_ref(), &cfg);
            assert!(r.cycles > 0, "{kernel}/{kind} produced no cycles");
            assert_eq!(r.levels.len(), 3, "{kernel}/{kind} level count");
            assert_eq!(
                r.levels[0].accesses, r.ops.mem_ops,
                "{kernel}/{kind}: L1 must see the whole demand stream"
            );
            for (i, lvl) in r.levels.iter().enumerate() {
                assert_eq!(
                    lvl.hits + lvl.misses,
                    lvl.accesses,
                    "{kernel}/{kind} level {i} hit/miss split"
                );
            }
            assert!(r.mem.reads > 0, "{kernel}/{kind}: cold caches must read memory");
            assert_eq!(r.mem.bytes_read, r.mem.reads * 64);
        }
    }
}

#[test]
fn baseline_uses_row_mode_only_and_mda_uses_both() {
    let kernel = Kernel::Sgemm;
    let base_cfg = SystemConfig::tiny(HierarchyKind::Baseline1P1L);
    let src = kernel.build(Scale::Tiny.input());
    let base = simulate(src.as_ref(), &base_cfg);
    assert_eq!(base.mem.col_reads, 0, "a 1-D hierarchy never issues column transfers");

    let mda_cfg = SystemConfig::tiny(HierarchyKind::P1L2DifferentSet);
    let mda = simulate(src.as_ref(), &mda_cfg);
    assert!(mda.mem.col_reads > 0, "the MDA hierarchy exploits column mode");
    assert!(mda.mem.row_reads > 0, "rows are still fetched in row mode");
}

#[test]
fn cycle_counts_are_stable_across_runs() {
    // Full-stack determinism: two fresh simulations of the same workload
    // and configuration agree bit-for-bit.
    let cfg = SystemConfig::tiny(HierarchyKind::P2L2Sparse);
    let src = Kernel::Htap1.build(Scale::Tiny.input());
    let a = simulate(src.as_ref(), &cfg);
    let b = simulate(src.as_ref(), &cfg);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.mem, b.mem);
    assert_eq!(a.levels, b.levels);
}

#[test]
fn two_level_systems_work() {
    for kind in HierarchyKind::all() {
        let cfg = Scale::Paper.cache_resident_system(kind);
        let src = Kernel::Sobel.build(64);
        let r = simulate(src.as_ref(), &cfg);
        assert_eq!(r.levels.len(), 2, "{kind}");
        assert!(r.cycles > 0);
    }
}

#[test]
fn facade_reexports_compose() {
    // The `mdacache` facade exposes enough to assemble a custom system.
    use mdacache::cache::CacheConfig;
    let mut cfg = SystemConfig::tiny(HierarchyKind::P1L2SameSet);
    cfg.l3 = Some(CacheConfig::l3(128 * 1024));
    cfg = cfg.with_fast_memory().with_llc_write_penalty(5);
    let src = Kernel::Strmm.build(32);
    let r = simulate(src.as_ref(), &cfg);
    assert!(r.cycles > 0);
    assert_eq!(r.design, "1P2L_SameSet");
}

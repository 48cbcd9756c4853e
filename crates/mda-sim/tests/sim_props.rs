//! Property tests across the whole simulator: random affine programs on
//! random design points must keep all statistics self-consistent.

use mda_compiler::expr::AffineExpr;
use mda_compiler::ir::{ArrayRef, Loop, LoopNest, Program};
use mda_sim::{simulate, HierarchyKind, SystemConfig};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct ProgSpec {
    dim: u64,
    refs: Vec<(u8, u8, bool)>, // (row_pick, col_pick, write)
    flops: u32,
}

fn prog_strategy() -> impl Strategy<Value = ProgSpec> {
    (1u64..4, proptest::collection::vec((0u8..3, 0u8..3, any::<bool>()), 1..4), 0u32..4)
        .prop_map(|(blocks, refs, flops)| ProgSpec { dim: blocks * 8, refs, flops })
}

fn kind_strategy() -> impl Strategy<Value = HierarchyKind> {
    prop_oneof![
        Just(HierarchyKind::Baseline1P1L),
        Just(HierarchyKind::P1L2DifferentSet),
        Just(HierarchyKind::P1L2SameSet),
        Just(HierarchyKind::P2L2Sparse),
        Just(HierarchyKind::P2L2Dense),
    ]
}

fn build(spec: &ProgSpec) -> Program {
    let mut p = Program::new("prop");
    let a = p.array("A", spec.dim, spec.dim);
    let pick = |w: u8| match w {
        0 => AffineExpr::var(0),
        1 => AffineExpr::var(1),
        _ => AffineExpr::constant(0),
    };
    let refs = spec
        .refs
        .iter()
        .map(|(rp, cp, write)| {
            if *write {
                ArrayRef::write(a, pick(*rp), pick(*cp))
            } else {
                ArrayRef::read(a, pick(*rp), pick(*cp))
            }
        })
        .collect();
    p.add_nest(LoopNest {
        loops: vec![Loop::constant(0, spec.dim as i64), Loop::constant(0, spec.dim as i64)],
        refs,
        flops_per_iter: spec.flops,
    });
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Per-level and memory statistics stay self-consistent on every design
    /// point.
    #[test]
    fn statistics_are_self_consistent(spec in prog_strategy(), kind in kind_strategy()) {
        let p = build(&spec);
        let r = simulate(&p, &SystemConfig::tiny(kind));

        prop_assert!(r.cycles > 0);
        // L1 sees exactly the demand stream.
        prop_assert_eq!(r.levels[0].accesses, r.ops.mem_ops);
        for (i, lvl) in r.levels.iter().enumerate() {
            prop_assert_eq!(lvl.hits + lvl.misses, lvl.accesses, "level {}", i);
            let by_class = lvl.row_scalar + lvl.row_vector + lvl.col_scalar + lvl.col_vector;
            prop_assert_eq!(by_class, lvl.accesses, "level {} class split", i);
        }
        // Memory read volume matches the line size.
        prop_assert_eq!(r.mem.bytes_read, r.mem.reads * 64);
        prop_assert_eq!(r.mem.row_reads + r.mem.col_reads, r.mem.reads);
        // A cold cache cannot have zero memory traffic unless there were no
        // memory ops at all.
        if r.ops.mem_ops > 0 {
            prop_assert!(r.mem.reads > 0);
        }
    }

    /// Simulation is a pure function of (program, config).
    #[test]
    fn simulation_is_deterministic(spec in prog_strategy(), kind in kind_strategy()) {
        let p = build(&spec);
        let cfg = SystemConfig::tiny(kind);
        let a = simulate(&p, &cfg);
        let b = simulate(&p, &cfg);
        prop_assert_eq!(a.cycles, b.cycles);
        prop_assert_eq!(a.levels, b.levels);
        prop_assert_eq!(a.mem, b.mem);
    }

    /// More cache can't increase memory reads (LRU inclusion-ish sanity on
    /// a single-nest program).
    #[test]
    fn bigger_llc_never_reads_more(spec in prog_strategy()) {
        let p = build(&spec);
        let small = simulate(&p, &SystemConfig::tiny(HierarchyKind::P1L2DifferentSet));
        let mut big_cfg = SystemConfig::tiny(HierarchyKind::P1L2DifferentSet);
        big_cfg.l3 = Some(mda_cache::CacheConfig::l3(1024 * 1024));
        let big = simulate(&p, &big_cfg);
        prop_assert!(big.mem.reads <= small.mem.reads);
    }

    /// The faster memory preset never slows a pure-demand run down.
    /// Designs that generate background traffic are excluded: faster fills
    /// relax MSHR throttling, letting the baseline's prefetcher (and the
    /// dense 2P2L's companion-line fetches) issue more aggressively and
    /// interfere with demand reads at the banks — a real scheduling
    /// anomaly, not a model bug.
    #[test]
    fn faster_memory_is_not_slower(spec in prog_strategy(), kind in kind_strategy()) {
        prop_assume!(kind != HierarchyKind::Baseline1P1L && kind != HierarchyKind::P2L2Dense);
        let p = build(&spec);
        let base = simulate(&p, &SystemConfig::tiny(kind));
        let fast = simulate(&p, &SystemConfig::tiny(kind).with_fast_memory());
        prop_assert!(fast.cycles <= base.cycles + base.cycles / 10,
            "fast {} vs base {}", fast.cycles, base.cycles);
    }
}

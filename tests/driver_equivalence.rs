//! Differential test of the one simulation driver: `simulate_multicore`
//! (and `simulate`, its one-core case) must reproduce, counter for
//! counter, the multi-programmed simulator this crate shipped before the
//! two drivers were merged. That simulator is kept below, verbatim up to
//! the API it reaches through, as the oracle: it captured every core's
//! whole trace into memory first, built one full single-core hierarchy per
//! core plus one more for the LLC, and interleaved the cores with its own
//! min-`now()` loop.

use mda_cache::{CacheLevel, LevelKind, StridePrefetcher};
use mda_compiler::trace::{OpCounts, TraceOp, TraceSource};
use mda_mem::{Cycle, MainMemory, WordAddr};
use mda_sim::multicore::{simulate_multicore, MulticoreReport};
use mda_sim::{simulate, Core, Hierarchy, HierarchyKind, SystemConfig};
use mda_workloads::{HtapWorkload, Kernel};

/// The pre-merge multi-programmed simulator.
mod oracle {
    use super::*;

    const CORE_ADDRESS_STRIDE: u64 = 1 << 40;

    /// Whether `kind` has the baseline stride prefetcher (the rule
    /// `HierarchyKind` keeps crate-private).
    fn prefetches(kind: HierarchyKind) -> bool {
        matches!(kind, HierarchyKind::Baseline1P1L | HierarchyKind::P2L1)
    }

    /// A trace captured whole by pushing every op into a `Vec`.
    struct Captured {
        name: String,
        ops: Vec<TraceOp>,
    }

    fn capture(src: &dyn TraceSource, cfg: &SystemConfig) -> Captured {
        let mut ops = Vec::new();
        src.generate(&cfg.codegen, &mut |op| ops.push(op));
        Captured { name: src.name().to_string(), ops }
    }

    /// `cores` copies of the private levels of a full single-core
    /// hierarchy each, and the LLC of one more.
    fn build_multicore_hierarchy(cfg: &SystemConfig, cores: usize) -> Hierarchy {
        assert!(cores > 0, "need at least one core");
        assert!(cfg.l3.is_some(), "multi-programmed systems need a dedicated shared LLC");
        let mut privates: Vec<Vec<LevelKind>> = Vec::with_capacity(cores);
        let mut prefetchers: Vec<Option<StridePrefetcher>> = Vec::with_capacity(cores);
        for _ in 0..cores {
            let single = cfg.build_hierarchy();
            let mut levels = single.into_levels();
            let _llc = levels.pop().expect("three-level hierarchy");
            privates.push(levels);
            prefetchers
                .push(prefetches(cfg.kind).then(|| StridePrefetcher::new(cfg.prefetch_degree)));
        }
        let shared_llc = {
            let single = cfg.build_hierarchy();
            single.into_levels().pop().expect("three-level hierarchy")
        };
        Hierarchy::multicore(privates, shared_llc, prefetchers, MainMemory::new(cfg.mem))
    }

    pub fn simulate_multicore(sources: &[&dyn TraceSource], cfg: &SystemConfig) -> MulticoreReport {
        assert!(!sources.is_empty(), "need at least one workload");
        let traces: Vec<Captured> = sources.iter().map(|s| capture(*s, cfg)).collect();

        let mut hierarchy = build_multicore_hierarchy(cfg, sources.len());
        let mut cores: Vec<Core> = (0..sources.len()).map(|_| Core::new(cfg.core)).collect();
        let mut cursors = vec![0usize; sources.len()];
        let mut counts = vec![OpCounts::default(); sources.len()];
        let mut finished: Vec<Option<Cycle>> = vec![None; sources.len()];

        while let Some(idx) =
            (0..cores.len()).filter(|i| finished[*i].is_none()).min_by_key(|i| cores[*i].now())
        {
            let op = traces[idx].ops[cursors[idx]];
            let op = offset_op(op, idx as u64 * CORE_ADDRESS_STRIDE);
            counts[idx].record(&op);
            // The old `Hierarchy::step_core`.
            match &op {
                TraceOp::Compute(n) => cores[idx].issue_compute(*n),
                TraceOp::Mem(m) => {
                    let mut done = 0;
                    cores[idx].issue_mem(|at| {
                        done = hierarchy.demand_from(idx, m, at);
                        done
                    });
                }
            }
            cursors[idx] += 1;
            if cursors[idx] == traces[idx].ops.len() {
                finished[idx] = Some(cores[idx].finish());
            }
        }

        let per_core: Vec<(String, Cycle, OpCounts)> = traces
            .iter()
            .zip(&finished)
            .zip(&counts)
            .map(|((t, f), c)| (t.name.clone(), f.expect("all cores finished"), *c))
            .collect();
        let makespan = per_core.iter().map(|(_, c, _)| *c).max().unwrap_or(0);
        MulticoreReport {
            per_core,
            makespan,
            levels: hierarchy.levels().iter().map(|l| *l.stats()).collect(),
            mem: *hierarchy.memory().stats(),
        }
    }

    fn offset_op(op: TraceOp, base: u64) -> TraceOp {
        match op {
            TraceOp::Compute(n) => TraceOp::Compute(n),
            TraceOp::Mem(m) => {
                TraceOp::Mem(mda_compiler::MemOp { word: WordAddr(m.word.0 + base), ..m })
            }
        }
    }
}

/// Four programs of unequal trace length, row- and column-heavy, with one
/// repeated (identical cores tie on `now()` constantly).
fn mix() -> Vec<Box<dyn TraceSource>> {
    vec![
        Kernel::Sobel.build(24),
        Box::new(HtapWorkload::new("htap-small", 16, 6, 48, 7)),
        Kernel::Sobel.build(24),
        Kernel::Strmm.build(20),
    ]
}

#[test]
fn multicore_reports_match_the_pre_merge_driver() {
    let sources = mix();
    let refs: Vec<&dyn TraceSource> = sources.iter().map(|s| s.as_ref()).collect();
    for cores in 1..=refs.len() {
        for kind in HierarchyKind::all() {
            for sub_buffers in [1, 4] {
                let mut cfg = SystemConfig::tiny(kind);
                cfg.mem.sub_buffers = sub_buffers;
                let got = simulate_multicore(&refs[..cores], &cfg);
                let want = oracle::simulate_multicore(&refs[..cores], &cfg);
                assert_eq!(got, want, "{cores} core(s), {kind}, {sub_buffers} sub-buffer(s)");
            }
        }
    }
}

#[test]
fn one_core_multicore_run_is_a_single_core_run() {
    let sources = mix();
    for kind in HierarchyKind::all() {
        let cfg = SystemConfig::tiny(kind);
        for src in &sources {
            let solo = simulate(src.as_ref(), &cfg);
            let multi = simulate_multicore(&[src.as_ref()], &cfg);
            let what = format!("{kind}/{}", src.name());
            assert_eq!(multi.per_core.len(), 1, "{what}");
            assert_eq!(multi.per_core[0].0, solo.workload, "{what}");
            assert_eq!(multi.per_core[0].1, solo.cycles, "{what}");
            assert_eq!(multi.makespan, solo.cycles, "{what}");
            assert_eq!(multi.per_core[0].2, solo.ops, "{what}");
            assert_eq!(multi.levels, solo.levels, "{what}");
            assert_eq!(multi.mem, solo.mem, "{what}");
        }
    }
}

//! Multi-programmed simulation: several cores, private L1/L2s, one shared
//! LLC and one shared MDA memory.
//!
//! The paper evaluates single-threaded workloads and notes (Sec. IX-B)
//! that "an investigation of our techniques on parallel workloads would
//! examine these approaches in greater detail" — this module provides that
//! investigation harness. Each core replays one workload trace (captured
//! up front, since interleaving requires pull-based iteration); cores are
//! advanced in global time order, so contention on the shared LLC, the
//! memory banks and the write queues emerges naturally.

use crate::core::Core;
use crate::hierarchy::Hierarchy;
use crate::report::SimReport;
use crate::system::SystemConfig;
use mda_cache::{CacheLevel, LevelKind, StridePrefetcher};
use mda_compiler::tracefile::RecordedTrace;
use mda_compiler::trace::{OpCounts, TraceOp, TraceSource};
use mda_mem::{Cycle, MainMemory, WordAddr};

/// Byte stride between the cores' address spaces (tile-aligned; large
/// enough that no two workloads' footprints can overlap).
const CORE_ADDRESS_STRIDE: u64 = 1 << 40;

/// Outcome of one multi-programmed run.
#[derive(Debug, Clone, PartialEq)]
pub struct MulticoreReport {
    /// Per-core `(workload, cycles, op counts)`.
    pub per_core: Vec<(String, Cycle, OpCounts)>,
    /// Cycle at which the last core retired its last µop.
    pub makespan: Cycle,
    /// Statistics of every level in the pool (private levels in core
    /// order, shared LLC last).
    pub levels: Vec<mda_cache::CacheStats>,
    /// Shared-memory statistics.
    pub mem: mda_mem::MemStats,
}

impl MulticoreReport {
    /// The shared LLC's statistics.
    pub fn llc(&self) -> &mda_cache::CacheStats {
        // mda-lint: allow(lib-unwrap): structural invariant; the constructor always builds the LLC
        self.levels.last().expect("at least the LLC")
    }
}

impl SystemConfig {
    /// Builds a multi-programmed hierarchy: `cores` copies of this
    /// configuration's private levels in front of one shared LLC.
    ///
    /// # Panics
    /// Panics if the configuration is two-level (a shared LLC requires the
    /// three-level preset) or `cores` is zero.
    pub fn build_multicore_hierarchy(&self, cores: usize) -> Hierarchy {
        assert!(cores > 0, "need at least one core");
        assert!(self.l3.is_some(), "multi-programmed systems need a dedicated shared LLC");
        let mut privates: Vec<Vec<LevelKind>> = Vec::with_capacity(cores);
        let mut prefetchers: Vec<Option<StridePrefetcher>> = Vec::with_capacity(cores);
        for _ in 0..cores {
            // Reuse the single-core builder, then split off its private
            // levels (everything above the LLC).
            let single = self.build_hierarchy();
            let mut levels = single.into_levels();
            // mda-lint: allow(lib-unwrap): structural invariant; build_hierarchy always yields L1+L2+LLC
            let _llc = levels.pop().expect("three-level hierarchy");
            privates.push(levels);
            prefetchers
                .push(self.kind.prefetches().then(|| StridePrefetcher::new(self.prefetch_degree)));
        }
        let shared_llc = {
            let single = self.build_hierarchy();
            // mda-lint: allow(lib-unwrap): structural invariant; build_hierarchy always yields L1+L2+LLC
            single.into_levels().pop().expect("three-level hierarchy")
        };
        Hierarchy::multicore(privates, shared_llc, prefetchers, MainMemory::new(self.mem))
    }
}

/// Simulates `sources` running concurrently, one per core, on `cfg`'s
/// design point. Each core gets a disjoint tile-aligned address window.
///
/// # Panics
/// Panics if `sources` is empty or the configuration is two-level.
pub fn simulate_multicore(sources: &[&dyn TraceSource], cfg: &SystemConfig) -> MulticoreReport {
    assert!(!sources.is_empty(), "need at least one workload");
    let traces: Vec<RecordedTrace> =
        sources.iter().map(|s| RecordedTrace::capture(*s, &cfg.codegen)).collect();

    let mut hierarchy = cfg.build_multicore_hierarchy(sources.len());
    let mut cores: Vec<Core> = (0..sources.len()).map(|_| Core::new(cfg.core)).collect();
    let mut cursors = vec![0usize; sources.len()];
    let mut counts = vec![OpCounts::default(); sources.len()];
    let mut finished: Vec<Option<Cycle>> = vec![None; sources.len()];

    // Advance the core that is furthest behind in time (global
    // time-ordered interleaving).
    while let Some(idx) = (0..cores.len())
        .filter(|i| finished[*i].is_none())
        .min_by_key(|i| cores[*i].now())
    {
        let op = traces[idx].ops()[cursors[idx]];
        let op = offset_op(op, idx as u64 * CORE_ADDRESS_STRIDE);
        counts[idx].record(&op);
        hierarchy.step_core(idx, &mut cores[idx], &op);
        cursors[idx] += 1;
        if cursors[idx] == traces[idx].ops().len() {
            finished[idx] = Some(cores[idx].finish());
        }
    }

    let per_core: Vec<(String, Cycle, OpCounts)> = traces
        .iter()
        .zip(&finished)
        .zip(&counts)
        // mda-lint: allow(lib-unwrap): structural invariant; the scheduler loop runs until every core finishes
        .map(|((t, f), c)| (t.name().to_string(), f.expect("all cores finished"), *c))
        .collect();
    let makespan = per_core.iter().map(|(_, c, _)| *c).max().unwrap_or(0);
    MulticoreReport {
        per_core,
        makespan,
        levels: hierarchy.levels().iter().map(|l| *l.stats()).collect(),
        mem: *hierarchy.memory().stats(),
    }
}

/// Relocates one op into a core-private address window.
fn offset_op(op: TraceOp, base: u64) -> TraceOp {
    match op {
        TraceOp::Compute(n) => TraceOp::Compute(n),
        TraceOp::Mem(m) => {
            TraceOp::Mem(mda_compiler::MemOp { word: WordAddr(m.word.0 + base), ..m })
        }
    }
}

/// Builds per-core `SimReport`-like summaries for display (each core's
/// private view plus the shared memory).
pub fn per_core_reports(r: &MulticoreReport, design: &str) -> Vec<SimReport> {
    r.per_core
        .iter()
        .map(|(name, cycles, ops)| SimReport {
            workload: name.clone(),
            design: design.to_string(),
            cycles: *cycles,
            levels: r.levels.clone(),
            mem: r.mem,
            ops: *ops,
            occupancy: crate::occupancy::OccupancyTimeline::new(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mda_compiler::{AffineExpr, ArrayRef, Loop, LoopNest, Program};

    fn walk(name: &str, n: i64, col: bool) -> Program {
        let mut p = Program::new(name);
        let a = p.array("A", n as u64, n as u64);
        let (r, c) = if col {
            (AffineExpr::var(1), AffineExpr::var(0))
        } else {
            (AffineExpr::var(0), AffineExpr::var(1))
        };
        p.add_nest(LoopNest {
            loops: vec![Loop::constant(0, n), Loop::constant(0, n)],
            refs: vec![ArrayRef::read(a, r, c)],
            flops_per_iter: 1,
        });
        p
    }

    #[test]
    fn two_programs_share_memory_but_not_addresses() {
        let a = walk("rows", 32, false);
        let b = walk("cols", 32, true);
        let cfg = SystemConfig::tiny(crate::HierarchyKind::P1L2DifferentSet);
        let r = simulate_multicore(&[&a, &b], &cfg);
        assert_eq!(r.per_core.len(), 2);
        assert!(r.makespan > 0);
        assert_eq!(r.per_core[0].0, "rows");
        assert_eq!(r.per_core[1].0, "cols");
        // Disjoint address windows: total memory reads equal the sum the
        // two programs would need, with no cross-core aliasing "sharing".
        assert!(r.mem.reads >= 2 * (32 * 32 * 8 / 64));
        assert_eq!(r.levels.len(), 5, "2 cores × 2 private levels + shared LLC");
    }

    #[test]
    fn contention_slows_cores_down() {
        let a = walk("one", 32, true);
        let cfg = SystemConfig::tiny(crate::HierarchyKind::P1L2DifferentSet);
        let solo = simulate_multicore(&[&a], &cfg);
        let b = walk("two", 32, true);
        let c = walk("three", 32, true);
        let d = walk("four", 32, true);
        let quad = simulate_multicore(&[&a, &b, &c, &d], &cfg);
        let solo_cycles = solo.per_core[0].1;
        let with_others = quad.per_core[0].1;
        assert!(
            with_others >= solo_cycles,
            "sharing the memory system cannot speed a core up ({solo_cycles} → {with_others})"
        );
    }

    #[test]
    fn multicore_is_deterministic() {
        let a = walk("a", 24, false);
        let b = walk("b", 24, true);
        let cfg = SystemConfig::tiny(crate::HierarchyKind::P2L2Sparse);
        let r1 = simulate_multicore(&[&a, &b], &cfg);
        let r2 = simulate_multicore(&[&a, &b], &cfg);
        assert_eq!(r1, r2);
    }

    #[test]
    #[should_panic(expected = "shared LLC")]
    fn two_level_configs_are_rejected() {
        let cfg = SystemConfig::paper_cache_resident(crate::HierarchyKind::Baseline1P1L);
        let a = walk("a", 16, false);
        let _ = simulate_multicore(&[&a], &cfg);
    }
}

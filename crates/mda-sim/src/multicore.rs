//! Multi-programmed simulation: several cores, private L1/L2s, one shared
//! LLC and one shared MDA memory.
//!
//! The paper evaluates single-threaded workloads and notes (Sec. IX-B)
//! that "an investigation of our techniques on parallel workloads would
//! examine these approaches in greater detail" — this module provides that
//! investigation harness. Each core pulls its workload's trace batch by
//! batch from a cursor, through the same driver loop as a single-core run;
//! cores are advanced in global time order, so contention on the shared
//! LLC, the memory banks and the write queues emerges naturally.

use crate::run::drive;
use crate::system::SystemConfig;
use mda_compiler::trace::{OpCounts, TraceSource};
use mda_mem::Cycle;

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

/// Simulates `sources` running concurrently, one per core, on `cfg`'s
/// design point: private L1/L2s per core in front of one shared LLC. Each
/// core gets a disjoint tile-aligned address window.
///
/// # Panics
/// Panics if `sources` is empty or the configuration is two-level.
pub fn simulate_multicore(sources: &[&dyn TraceSource], cfg: &SystemConfig) -> MulticoreReport {
    assert!(!sources.is_empty(), "need at least one workload");
    assert!(cfg.l3.is_some(), "multi-programmed systems need a dedicated shared LLC");
    let run = drive(sources, cfg);
    let per_core: Vec<(String, Cycle, OpCounts)> = sources
        .iter()
        .zip(run.per_core)
        .map(|(src, (cycles, ops))| (src.name().to_string(), cycles, ops))
        .collect();
    let makespan = per_core.iter().map(|(_, c, _)| *c).max().unwrap_or(0);
    MulticoreReport { per_core, makespan, levels: run.levels, mem: run.mem }
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
        let kind = crate::HierarchyKind::Baseline1P1L;
        let cfg = SystemConfig { l3: None, ..SystemConfig::tiny(kind) };
        let a = walk("a", 16, false);
        let _ = simulate_multicore(&[&a], &cfg);
    }
}

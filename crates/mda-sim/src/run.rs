//! The top-level simulation entry point.

use crate::core::Core;
use crate::occupancy::OccupancyTimeline;
use crate::report::SimReport;
use crate::system::SystemConfig;
use mda_cache::CacheLevel;
use mda_compiler::trace::{OpCounts, TraceOp, TraceSource};

/// Simulates `src` on the system described by `cfg`, consuming the trace
/// the compiler generates for that system's code-generation target.
///
/// See the crate-level documentation for an end-to-end example; the
/// `mdacache` facade crate shows the same flow against a real workload.
pub fn simulate(src: &dyn TraceSource, cfg: &SystemConfig) -> SimReport {
    let mut hierarchy = cfg.build_hierarchy();
    let mut core = Core::new(cfg.core);
    let mut ops = OpCounts::default();
    let mut occupancy = OccupancyTimeline::new();
    let sample_every = cfg.occupancy_every;
    // Reused across samples so the hot trace loop never allocates.
    let mut snapshot: Vec<(usize, usize, usize)> = Vec::new();

    src.generate(&cfg.codegen, &mut |op| {
        ops.record(&op);
        hierarchy.step(&mut core, &op);
        if sample_every > 0 && matches!(op, TraceOp::Mem(_)) && ops.mem_ops.is_multiple_of(sample_every) {
            snapshot.clear();
            snapshot.extend(hierarchy.levels().iter().map(|l| l.occupancy()));
            occupancy.record(core.now(), &snapshot);
        }
    });

    let cycles = core.finish();
    let levels = hierarchy.levels().iter().map(|l| *l.stats()).collect();
    let mem = *hierarchy.memory().stats();
    SimReport {
        workload: src.name().to_string(),
        design: cfg.kind.name().to_string(),
        cycles,
        levels,
        mem,
        ops,
        occupancy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::HierarchyKind;
    use mda_compiler::{AffineExpr, ArrayRef, Loop, LoopNest, Program};

    fn row_walk(n: i64) -> Program {
        let mut p = Program::new("walk");
        let a = p.array("A", n as u64, n as u64);
        p.add_nest(LoopNest {
            loops: vec![Loop::constant(0, n), Loop::constant(0, n)],
            refs: vec![ArrayRef::read(a, AffineExpr::var(0), AffineExpr::var(1))],
            flops_per_iter: 1,
        });
        p
    }

    #[test]
    fn simulate_produces_consistent_report() {
        let p = row_walk(32);
        let cfg = SystemConfig::tiny(HierarchyKind::P1L2DifferentSet);
        let r = simulate(&p, &cfg);
        assert!(r.cycles > 0);
        assert_eq!(r.levels.len(), 3);
        assert_eq!(r.ops.mem_ops, 32 * 32 / 8);
        assert_eq!(r.levels[0].accesses, r.ops.mem_ops);
        assert!(r.mem.reads > 0, "cold cache must read memory");
        assert_eq!(r.workload, "walk");
        assert_eq!(r.design, "1P2L");
    }

    #[test]
    fn occupancy_sampling_collects_points() {
        let p = row_walk(32);
        let cfg = SystemConfig::tiny(HierarchyKind::P1L2DifferentSet).with_occupancy_sampling(16);
        let r = simulate(&p, &cfg);
        assert!(!r.occupancy.is_empty());
    }

    #[test]
    fn repeated_simulation_is_deterministic() {
        let p = row_walk(24);
        let cfg = SystemConfig::tiny(HierarchyKind::P2L2Sparse);
        let a = simulate(&p, &cfg);
        let b = simulate(&p, &cfg);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.levels, b.levels);
        assert_eq!(a.mem, b.mem);

        // Parallel-vs-sequential equivalence: the same cell simulated on
        // concurrently running worker threads must reproduce the sequential
        // report exactly (each simulation owns all of its state).
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4).map(|_| scope.spawn(|| simulate(&p, &cfg))).collect();
            for worker in workers {
                let r = worker.join().expect("worker simulation panicked");
                assert_eq!(r.cycles, a.cycles);
                assert_eq!(r.levels, a.levels);
                assert_eq!(r.mem, a.mem);
            }
        });
    }
}

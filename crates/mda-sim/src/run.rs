//! The simulation driver: one loop that feeds each core its workload's
//! trace, pulled batch by batch from a [`TraceCursor`], over one shared
//! hierarchy. [`simulate`] is its one-core case;
//! [`crate::multicore::simulate_multicore`] runs one workload per core.

use crate::core::Core;
use crate::occupancy::OccupancyTimeline;
use crate::report::SimReport;
use crate::system::SystemConfig;
use mda_cache::{CacheLevel, CacheStats};
use mda_compiler::trace::{MemOp, OpCounts, TraceCursor, TraceOp, TraceSource};
use mda_mem::{Cycle, MemStats, WordAddr};

/// Word-address stride between the cores' address windows (tile-aligned;
/// large enough that no two workloads' footprints can overlap). Core 0's
/// window starts at 0, so a single-core run sees its trace unmoved.
const CORE_ADDRESS_STRIDE: u64 = 1 << 40;

/// One core, the cursor feeding it, and its progress.
struct Lane<'a> {
    cursor: Box<dyn TraceCursor + 'a>,
    batch: Vec<TraceOp>,
    /// Index of the next op of `batch` to issue.
    next: usize,
    core: Core,
    ops: OpCounts,
    /// Cycle at which the core retired its last µop, once `done`.
    cycles: Cycle,
    done: bool,
}

/// Everything a finished run reports.
pub(crate) struct Run {
    /// Per core: `(cycles, op counts)`.
    pub per_core: Vec<(Cycle, OpCounts)>,
    /// Statistics of every level in the pool (private levels in core
    /// order, LLC last).
    pub levels: Vec<CacheStats>,
    /// Main-memory statistics.
    pub mem: MemStats,
    /// Occupancy of every level, sampled each `cfg.occupancy_every` memory
    /// ops of the core that just issued one.
    pub occupancy: OccupancyTimeline,
}

/// Runs `sources[i]` on core `i` of `cfg`'s hierarchy until every trace is
/// exhausted. Each step advances the unfinished core with the smallest
/// `now()` (ties go to the lowest index), so contention on the shared LLC,
/// memory banks and write queues emerges in global time order. A core
/// whose trace is exhausted is finished when it is next selected.
pub(crate) fn drive(sources: &[&dyn TraceSource], cfg: &SystemConfig) -> Run {
    let mut hierarchy = cfg.build(sources.len());
    let mut lanes: Vec<Lane> = sources
        .iter()
        .map(|src| Lane {
            cursor: src.cursor(&cfg.codegen),
            batch: Vec::new(),
            next: 0,
            core: Core::new(cfg.core),
            ops: OpCounts::default(),
            cycles: 0,
            done: false,
        })
        .collect();
    let mut occupancy = OccupancyTimeline::new();
    // Reused across samples so the trace loop never allocates for them.
    let mut snapshot: Vec<(usize, usize, usize)> = Vec::new();

    while let Some(idx) =
        (0..lanes.len()).filter(|&i| !lanes[i].done).min_by_key(|&i| lanes[i].core.now())
    {
        let lane = &mut lanes[idx];
        if lane.next == lane.batch.len() {
            lane.next = 0;
            if !lane.cursor.next_batch(&mut lane.batch) {
                lane.cycles = lane.core.finish();
                lane.done = true;
                continue;
            }
        }
        let op = match lane.batch[lane.next] {
            TraceOp::Mem(m) => {
                let word = WordAddr(m.word.0 + idx as u64 * CORE_ADDRESS_STRIDE);
                TraceOp::Mem(MemOp { word, ..m })
            }
            compute => compute,
        };
        lane.next += 1;
        lane.ops.record(&op);
        hierarchy.step(idx, &mut lane.core, &op);
        let every = cfg.occupancy_every;
        if every > 0 && matches!(op, TraceOp::Mem(_)) && lane.ops.mem_ops.is_multiple_of(every) {
            snapshot.clear();
            snapshot.extend(hierarchy.levels().iter().map(|l| l.occupancy()));
            occupancy.record(lane.core.now(), &snapshot);
        }
    }

    Run {
        per_core: lanes.iter().map(|l| (l.cycles, l.ops)).collect(),
        levels: hierarchy.levels().iter().map(|l| *l.stats()).collect(),
        mem: *hierarchy.memory().stats(),
        occupancy,
    }
}

/// Simulates `src` on the system described by `cfg`, consuming the trace
/// the compiler generates for that system's code-generation target.
///
/// See the crate-level documentation for an end-to-end example; the
/// `mdacache` facade crate shows the same flow against a real workload.
pub fn simulate(src: &dyn TraceSource, cfg: &SystemConfig) -> SimReport {
    let Run { per_core, levels, mem, occupancy } = drive(&[src], cfg);
    let (cycles, ops) = per_core[0];
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

//! The traced run's per-layer ledger. Every number is taken from outside a
//! layer, by timing calls into its public functions:
//!
//! 1. **Generation alone**: `TraceSource::generate` into a counting sink.
//! 2. **Boundary split**: the benchmark drives `generate` →
//!    `Core::issue_compute`/`issue_mem` → `Hierarchy::demand` itself, the
//!    way `Hierarchy::step` does, timing every core and demand call. The
//!    result must reproduce `simulate`'s report exactly.
//! 3. **Component replay**: fresh cache levels, stride prefetcher and main
//!    memory are driven functionally (probe → fetch and fill on a miss →
//!    writebacks down; prefetcher observe; memory read/write at the
//!    demand's issue cycle) and each component's calls are timed. There are
//!    no MSHRs, so the replayed streams only approximate the real ones;
//!    `replay_gap_frac` says by how much.
//!
//! Phase 3 runs inside phase 2's generation, on windows of demands, so
//! memory stays bounded whatever the trace length.

use crate::cells::Cell;
use crate::digest;
use mda_cache::level::{Access, AccessWidth, Probe};
use mda_cache::{CacheLevel, LevelKind, StridePrefetcher, Writeback};
use mda_compiler::trace::OpCounts;
use mda_compiler::{MemOp, TraceOp};
use mda_mem::{Cycle, LineKey, MainMemory, Orientation, WordAddr};
use mda_sim::{Core, HierarchyKind, SimReport};
use std::hint::black_box;
use std::time::Instant;

/// Demands replayed per window.
const WINDOW: usize = 16 * 1024;

/// The cache levels the ledger names (`l1`, `l2`, `l3`).
pub const LEVELS: usize = 3;

fn nanos(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// The measured interval of an empty timed region: the cost the timer adds
/// to every interval it measures. Median of batch averages.
pub fn timer_cost_ns() -> f64 {
    let mut batches: Vec<f64> = (0..101)
        .map(|_| {
            let mut sum = 0u64;
            for _ in 0..1000 {
                let t = Instant::now();
                sum += black_box(nanos(t));
            }
            sum as f64 / 1000.0
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[batches.len() / 2]
}

/// Accumulated time and calls of one component.
#[derive(Debug, Default, Clone, Copy)]
pub struct Span {
    ns: u64,
    calls: u64,
    /// Timer costs inside `ns`: one per call, plus any nested timer.
    timers: u64,
}

impl Span {
    fn add(&mut self, ns: u64) {
        self.ns += ns;
        self.calls += 1;
        self.timers += 1;
    }

    fn merge(&mut self, other: &Span) {
        self.ns += other.ns;
        self.calls += other.calls;
        self.timers += other.timers;
    }

    /// Nanoseconds with the timer's own cost taken out.
    pub fn net_ns(&self, timer_ns: f64) -> f64 {
        (self.ns as f64 - self.timers as f64 * timer_ns).max(0.0)
    }

    /// Net nanoseconds per call (0 when never called).
    pub fn ns_per_call(&self, timer_ns: f64) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.net_ns(timer_ns) / self.calls as f64
        }
    }
}

/// One traced pass over a workload's cells.
#[derive(Debug, Default)]
pub struct PassLedger {
    /// Phase 1: generation of every cell's trace.
    pub generate: Span,
    /// Trace ops emitted in phase 1.
    pub trace_ops: u64,
    /// Phase 2: `Core::issue_*` time, demand time excluded.
    pub core: Span,
    /// Phase 2: `Hierarchy::demand` time.
    pub demand: Span,
    /// Phase 2 wall time, replay windows excluded.
    pub split_ns: u64,
    /// Phase 3: per-level probe/fill/absorb/contains calls.
    pub levels: [Span; LEVELS],
    /// Phase 3: prefetcher observe calls.
    pub prefetch: Span,
    /// Phase 3: memory read/write calls.
    pub mem: Span,
    /// Phase 3: accesses per level and memory reads/writes, to compare
    /// with the reports.
    pub replay_counts: [u64; LEVELS + 2],
    /// Cells whose boundary split did not reproduce `simulate`.
    pub split_mismatches: u64,
}

/// Phase 1 for one cell.
pub fn generate_only(cell: &Cell, led: &mut PassLedger) {
    let mut n = 0u64;
    let t = Instant::now();
    cell.source.generate(&cell.cfg.codegen, &mut |op| {
        black_box(op);
        n += 1;
    });
    led.generate.add(nanos(t));
    led.trace_ops += n;
}

/// Phases 2 and 3 for one cell; `expected` is the cell's untraced report.
pub fn split_and_replay(cell: &Cell, expected: &SimReport, led: &mut PassLedger) {
    let cfg = &cell.cfg;
    let mut hierarchy = cfg.build_hierarchy();
    let mut core = Core::new(cfg.core);
    let mut ops = OpCounts::default();
    let mut replay = Replay::new(cell);
    let mut window: Vec<(MemOp, Cycle)> = Vec::with_capacity(WINDOW);
    let (mut core_span, mut demand_span, mut replay_ns) = (Span::default(), Span::default(), 0u64);
    let start = Instant::now();
    cell.source.generate(&cfg.codegen, &mut |op| match op {
        TraceOp::Compute(n) => {
            ops.compute_uops += u64::from(n);
            let t = Instant::now();
            core.issue_compute(n);
            core_span.add(nanos(t));
        }
        TraceOp::Mem(m) => {
            ops.mem_ops += 1;
            ops.bytes += m.bytes();
            if m.vector {
                ops.vector_mem_ops += 1;
            }
            let (mut inner, mut issued) = (0u64, 0);
            let t = Instant::now();
            core.issue_mem(|at| {
                let t_in = Instant::now();
                let done = hierarchy.demand(&m, at);
                inner = nanos(t_in);
                issued = at;
                done
            });
            let outer = nanos(t);
            demand_span.add(inner);
            core_span.add(outer.saturating_sub(inner));
            // The outer interval also holds the inner timer's own cost.
            core_span.timers += 1;
            window.push((m, issued));
            if window.len() == WINDOW {
                let t = Instant::now();
                replay.run(&window);
                replay_ns += nanos(t);
                window.clear();
            }
        }
    });
    led.split_ns += nanos(start) - replay_ns;
    replay.run(&window);
    let cycles = core.finish();
    let levels: Vec<_> = hierarchy.levels().iter().map(|l| *l.stats()).collect();
    let got = digest::of_parts(cycles, &ops, &levels, hierarchy.memory().stats());
    if got != digest::of_report(expected) {
        led.split_mismatches += 1;
    }
    led.core.merge(&core_span);
    led.demand.merge(&demand_span);
    replay.finish(led);
}

/// Phase 3: the hierarchy's functional demand path over fresh components,
/// without MSHRs, timing every component call.
struct Replay {
    levels: Vec<LevelKind>,
    prefetcher: Option<StridePrefetcher>,
    mem: MainMemory,
    probes: Vec<Probe>,
    scratch: Vec<Vec<Writeback>>,
    targets: Vec<u64>,
    level_spans: [Span; LEVELS],
    prefetch: Span,
    mem_span: Span,
}

impl Replay {
    fn new(cell: &Cell) -> Replay {
        let cfg = &cell.cfg;
        let levels = cfg.build_hierarchy().into_levels();
        assert_eq!(levels.len(), LEVELS, "the ledger names three cache levels");
        let prefetcher = match cfg.kind {
            HierarchyKind::Baseline1P1L | HierarchyKind::P2L1 => {
                Some(StridePrefetcher::new(cfg.prefetch_degree))
            }
            _ => None,
        };
        Replay {
            probes: vec![Probe::hit(); levels.len()],
            levels,
            prefetcher,
            mem: MainMemory::new(cfg.mem),
            scratch: Vec::new(),
            targets: Vec::new(),
            level_spans: [Span::default(); LEVELS],
            prefetch: Span::default(),
            mem_span: Span::default(),
        }
    }

    fn run(&mut self, window: &[(MemOp, Cycle)]) {
        for (m, at) in window {
            let acc = Access {
                word: m.word,
                orient: m.orient,
                width: if m.vector {
                    AccessWidth::Vector
                } else {
                    AccessWidth::Scalar
                },
                is_write: m.write,
                stream: m.stream,
            };
            self.access(0, &acc, *at);
            if let Some(pf) = self.prefetcher.as_mut() {
                let line_addr = LineKey::containing(acc.word, Orientation::Row).base_addr();
                let t = Instant::now();
                self.targets.clear();
                self.targets.extend(pf.observe(acc.stream, line_addr));
                self.prefetch.add(nanos(t));
                for i in 0..self.targets.len() {
                    let line = LineKey::containing(WordAddr(self.targets[i]), Orientation::Row);
                    self.prefetch_line(line, *at);
                }
            }
        }
    }

    fn access(&mut self, pos: usize, acc: &Access, now: Cycle) {
        let t = Instant::now();
        self.levels[pos].probe_into(acc, &mut self.probes[pos]);
        self.level_spans[pos].add(nanos(t));
        let probe = self.probes[pos];
        for wb in probe.writebacks.iter() {
            self.writeback(pos + 1, wb, now);
        }
        if probe.hit {
            return;
        }
        let demand_line = probe.fills[0];
        self.fetch(pos, demand_line, now);
        for extra in probe.fills[1..].iter() {
            self.fetch(pos, *extra, now);
            self.fill(pos, *extra, 0, now);
        }
        let dirty = match (acc.is_write, acc.width) {
            (false, _) => 0,
            (true, AccessWidth::Vector) => 0xFF,
            (true, AccessWidth::Scalar) => {
                demand_line.offset_of(acc.word).map_or(0, |off| 1u8 << off)
            }
        };
        self.fill(pos, demand_line, dirty, now);
    }

    fn fetch(&mut self, pos: usize, line: LineKey, now: Cycle) {
        if pos + 1 == self.levels.len() {
            let t = Instant::now();
            black_box(self.mem.read(line, now));
            self.mem_span.add(nanos(t));
        } else {
            self.access(pos + 1, &Access::vector_read(line, u32::MAX), now);
        }
    }

    fn fill(&mut self, pos: usize, line: LineKey, dirty: u8, now: Cycle) {
        let mut wbs = self.scratch.pop().unwrap_or_default();
        let t = Instant::now();
        self.levels[pos].fill(line, dirty, &mut wbs);
        self.level_spans[pos].add(nanos(t));
        for wb in &wbs {
            self.writeback(pos + 1, wb, now);
        }
        wbs.clear();
        self.scratch.push(wbs);
    }

    fn writeback(&mut self, pos: usize, wb: &Writeback, now: Cycle) {
        if pos == self.levels.len() {
            let t = Instant::now();
            black_box(self.mem.write(wb.line, wb.words(), now));
            self.mem_span.add(nanos(t));
            return;
        }
        let mut cascades = self.scratch.pop().unwrap_or_default();
        let t = Instant::now();
        let absorbed = self.levels[pos].absorb_writeback(wb, &mut cascades);
        self.level_spans[pos].add(nanos(t));
        if !absorbed {
            let t = Instant::now();
            self.levels[pos].fill(wb.line, wb.dirty, &mut cascades);
            self.level_spans[pos].add(nanos(t));
        }
        for c in &cascades {
            self.writeback(pos + 1, c, now);
        }
        cascades.clear();
        self.scratch.push(cascades);
    }

    fn prefetch_line(&mut self, line: LineKey, now: Cycle) {
        let t = Instant::now();
        let present = self.levels[0].contains_line(&line);
        self.level_spans[0].add(nanos(t));
        if !present {
            self.fetch(0, line, now);
            self.fill(0, line, 0, now);
        }
    }

    fn finish(self, led: &mut PassLedger) {
        for (acc, span) in led.levels.iter_mut().zip(&self.level_spans) {
            acc.merge(span);
        }
        led.prefetch.merge(&self.prefetch);
        led.mem.merge(&self.mem_span);
        for (i, l) in self.levels.iter().enumerate() {
            led.replay_counts[i] += l.stats().accesses;
        }
        led.replay_counts[LEVELS] += self.mem.stats().reads;
        led.replay_counts[LEVELS + 1] += self.mem.stats().writes;
    }
}

/// `|replay − real| / real`, summed over level accesses and memory reads
/// and writes of every cell.
pub fn replay_gap(led: &PassLedger, reports: &[SimReport]) -> f64 {
    let mut real = [0u64; LEVELS + 2];
    for r in reports {
        for (i, l) in r.levels.iter().take(LEVELS).enumerate() {
            real[i] += l.accesses;
        }
        real[LEVELS] += r.mem.reads;
        real[LEVELS + 1] += r.mem.writes;
    }
    let gap: u64 = real
        .iter()
        .zip(&led.replay_counts)
        .map(|(a, b)| a.abs_diff(*b))
        .sum();
    let total: u64 = real.iter().sum();
    if total == 0 {
        0.0
    } else {
        gap as f64 / total as f64
    }
}

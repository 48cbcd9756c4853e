//! Reuse-distance (Mattson stack) analysis of generated traces.
//!
//! For every memory access, the *reuse distance* is the number of distinct
//! cache lines touched since the previous access to the same line. Under
//! fully-associative LRU, an access hits if and only if its reuse distance
//! is smaller than the cache's line capacity, so the histogram of reuse
//! distances yields the entire miss-rate-versus-capacity curve in one
//! pass — the analytical companion to the event simulation, and a handy
//! way to reason about how MDA caching changes a workload's locality
//! (column vectorization shortens the B-operand's reuse distances by 8×).
//!
//! Distances are computed with the Bennett–Kruskal algorithm: a Fenwick
//! tree over access timestamps counts, for each access, how many lines
//! were last touched after the current line's previous access — O(log n)
//! per access.

use crate::trace::{TraceOp, TraceSource};
use crate::vectorize::CodegenOptions;
use mda_mem::{LineKey, Orientation};
use std::collections::HashMap;

/// Which line granularity to measure distances at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReuseGranularity {
    /// Conventional 64-byte row lines (every access mapped to its row
    /// line) — the right metric for 1-D hierarchies.
    RowLines,
    /// Orientation-faithful lines: vector ops use their own orientation,
    /// scalars their preference — the metric a logically 2-D cache sees.
    OrientedLines,
}

/// A Fenwick (binary indexed) tree over access timestamps.
#[derive(Debug, Clone)]
struct Fenwick {
    tree: Vec<u64>,
}

impl Fenwick {
    fn new(n: usize) -> Fenwick {
        Fenwick { tree: vec![0; n + 1] }
    }

    fn grow(&mut self, n: usize) {
        if n + 1 > self.tree.len() {
            self.tree.resize((n + 1).next_power_of_two(), 0);
        }
    }

    fn add(&mut self, mut i: usize, v: i64) {
        i += 1;
        self.grow(i);
        while i < self.tree.len() {
            self.tree[i] = (self.tree[i] as i64 + v) as u64;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum over `[0, i]`.
    fn prefix(&self, mut i: usize) -> u64 {
        i += 1;
        let mut s = 0;
        let mut idx = i.min(self.tree.len() - 1);
        while idx > 0 {
            s += self.tree[idx];
            idx -= idx & idx.wrapping_neg();
        }
        s
    }
}

/// The reuse-distance histogram of one trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReuseProfile {
    /// `histogram[d]` = number of accesses with reuse distance exactly `d`
    /// (capped at the largest observed distance).
    histogram: HashMap<u64, u64>,
    /// First-touch (cold) accesses.
    cold: u64,
    /// Total line-granular accesses.
    accesses: u64,
}

impl ReuseProfile {
    /// Computes the profile of `src` under `opts` at `granularity`.
    pub fn collect(
        src: &dyn TraceSource,
        opts: &CodegenOptions,
        granularity: ReuseGranularity,
    ) -> ReuseProfile {
        let mut profile = ReuseProfile::default();
        let mut last_access: HashMap<LineKey, usize> = HashMap::new();
        let mut fenwick = Fenwick::new(1024);
        let mut time = 0usize;

        src.generate(opts, &mut |op| {
            let TraceOp::Mem(m) = op else { return };
            let line = match granularity {
                ReuseGranularity::RowLines => LineKey::containing(m.word, Orientation::Row),
                ReuseGranularity::OrientedLines => LineKey::containing(m.word, m.orient),
            };
            profile.accesses += 1;
            match last_access.insert(line, time) {
                None => {
                    profile.cold += 1;
                }
                Some(prev) => {
                    // Distinct lines touched since `prev` = number of lines
                    // whose last access lies in (prev, time).
                    let later = fenwick.prefix(time) - fenwick.prefix(prev);
                    *profile.histogram.entry(later).or_default() += 1;
                    fenwick.add(prev, -1);
                }
            }
            fenwick.add(time, 1);
            time += 1;
        });
        profile
    }

    /// Total line-granular accesses.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// First-touch accesses (infinite reuse distance).
    pub fn cold_misses(&self) -> u64 {
        self.cold
    }

    /// Number of distinct lines the trace touches.
    pub fn footprint_lines(&self) -> u64 {
        self.cold
    }

    /// Fully-associative LRU hit rate at a capacity of `lines` cache
    /// lines, in `[0, 1]`.
    pub fn hit_rate_at(&self, lines: u64) -> f64 {
        if self.accesses == 0 {
            return 0.0;
        }
        let hits: u64 = self.histogram.iter().filter(|(d, _)| **d < lines).map(|(_, n)| *n).sum();
        hits as f64 / self.accesses as f64
    }

    /// The miss curve over the given capacities.
    pub fn miss_curve(&self, capacities: &[u64]) -> Vec<(u64, f64)> {
        capacities.iter().map(|c| (*c, 1.0 - self.hit_rate_at(*c))).collect()
    }

    /// Mean finite reuse distance (None if no line is ever reused).
    pub fn mean_distance(&self) -> Option<f64> {
        let n: u64 = self.histogram.values().sum();
        if n == 0 {
            return None;
        }
        let total: u64 = self.histogram.iter().map(|(d, c)| d * c).sum();
        Some(total as f64 / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::AffineExpr;
    use crate::ir::{ArrayRef, Loop, LoopNest, Program};
    use crate::layout::LayoutKind;

    fn scalar_opts() -> CodegenOptions {
        CodegenOptions {
            layout: LayoutKind::Tiled2D,
            vectorize_rows: false,
            vectorize_cols: false,
            loop_overhead: 0,
        }
    }

    fn row_scan(rows: i64, cols: i64, passes: i64) -> Program {
        let mut p = Program::new("scan");
        let a = p.array("A", rows as u64, cols as u64);
        p.add_nest(LoopNest {
            loops: vec![
                Loop::constant(0, passes),
                Loop::constant(0, rows),
                Loop::constant(0, cols),
            ],
            refs: vec![ArrayRef::read(a, AffineExpr::var(1), AffineExpr::var(2))],
            flops_per_iter: 0,
        });
        p
    }

    #[test]
    fn single_pass_is_all_cold_at_line_granularity() {
        let p = row_scan(8, 64, 1);
        let r = ReuseProfile::collect(&p, &scalar_opts(), ReuseGranularity::RowLines);
        // 8 scalar accesses per line: 1 cold + 7 distance-0 reuses each.
        assert_eq!(r.accesses(), 8 * 64);
        assert_eq!(r.footprint_lines(), 8 * 64 / 8);
        assert!((r.hit_rate_at(1) - 7.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn second_pass_reuses_at_footprint_distance() {
        // Two passes over 64 lines: pass-2 accesses have distance 63 at
        // line granularity (each line was last touched one full sweep ago).
        let p = row_scan(8, 64, 2);
        let r = ReuseProfile::collect(&p, &scalar_opts(), ReuseGranularity::RowLines);
        let lines = 64u64;
        // A 64-line cache captures everything after the cold pass; a
        // 63-line cache loses the second sweep's long reuses.
        assert!(r.hit_rate_at(lines) > r.hit_rate_at(lines - 16) + 0.05);
        assert_eq!(r.footprint_lines(), lines);
    }

    #[test]
    fn hit_rate_is_monotone_in_capacity() {
        let p = row_scan(16, 32, 3);
        let r = ReuseProfile::collect(&p, &scalar_opts(), ReuseGranularity::RowLines);
        let mut prev = -1.0;
        for c in [1u64, 2, 4, 8, 16, 32, 64, 128, 256] {
            let h = r.hit_rate_at(c);
            assert!(h >= prev, "hit rate dropped at capacity {c}");
            prev = h;
        }
        let curve = r.miss_curve(&[1, 64, 1024]);
        assert!(curve[0].1 >= curve[2].1);
    }

    #[test]
    fn column_vectorization_shrinks_column_reuse_pressure() {
        // A column walk at row-line granularity touches each row line 8
        // times, far apart; with column vectorization (oriented lines) each
        // column line is one access — the footprint the cache must hold
        // drops 8×.
        let mut p = Program::new("colwalk");
        let a = p.array("A", 64, 64);
        p.add_nest(LoopNest {
            loops: vec![Loop::constant(0, 64), Loop::constant(0, 64)],
            refs: vec![ArrayRef::read(a, AffineExpr::var(1), AffineExpr::var(0))],
            flops_per_iter: 0,
        });
        let conventional = ReuseProfile::collect(&p, &scalar_opts(), ReuseGranularity::RowLines);
        let mda =
            ReuseProfile::collect(&p, &CodegenOptions::mda(), ReuseGranularity::OrientedLines);
        assert_eq!(mda.accesses(), conventional.accesses() / 8);
        assert_eq!(mda.cold_misses(), conventional.footprint_lines());
        // Conventional: reusing a row line requires holding a whole
        // column-sweep's worth of lines; a small cache catches nothing.
        assert_eq!(conventional.hit_rate_at(8), 0.0);
    }

    #[test]
    fn empty_trace_behaves() {
        let mut p = Program::new("empty");
        let a = p.array("A", 8, 8);
        p.add_nest(LoopNest {
            loops: vec![Loop::constant(0, 0)],
            refs: vec![ArrayRef::read(a, AffineExpr::constant(0), AffineExpr::var(0))],
            flops_per_iter: 0,
        });
        let r = ReuseProfile::collect(&p, &scalar_opts(), ReuseGranularity::RowLines);
        assert_eq!(r.accesses(), 0);
        assert_eq!(r.hit_rate_at(1024), 0.0);
        assert_eq!(r.mean_distance(), None);
    }
}

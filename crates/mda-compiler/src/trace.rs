//! Lowering a [`Program`] to the annotated memory-operation stream of the
//! MDA ISA (paper Sec. IV-B-a: every scalar or SIMD memory operation has a
//! row- and a column-preference variant).
//!
//! Generation is *pull-based*: a [`TraceCursor`] hands out one batch at a
//! time (for a [`Program`], one execution of a nest's innermost loop), so
//! traces of hundreds of millions of operations never materialize in
//! memory and several traces can be interleaved. Loop-invariant references
//! are register-promoted around the innermost loop (reads before it, writes
//! after it); vectorized nests emit one line-wide memory operation per
//! reference per eight iterations, with scalar pro-/epilogues wherever a
//! chunk is not line-aligned (triangular bounds, unaligned lower bounds,
//! negative strides).

use crate::analysis::Direction;
use crate::ir::{ArrayRef, LoopNest, Program, RefKind};
use crate::layout::Layout;
use crate::vectorize::{plan_nest, CodegenOptions, NestPlan};
use mda_mem::{LineKey, Orientation, WordAddr, LINE_WORDS};

/// One memory micro-operation with its MDA annotations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemOp {
    /// First (or only) word accessed. Vector ops address offset 0 of their
    /// line.
    pub word: WordAddr,
    /// Compiler-assigned preference bit.
    pub orient: Orientation,
    /// Whether this is a line-wide SIMD operation.
    pub vector: bool,
    /// Whether this operation stores.
    pub write: bool,
    /// Static-instruction id (PC analog).
    pub stream: u32,
}

impl MemOp {
    /// Bytes moved by the operation.
    pub fn bytes(&self) -> u64 {
        if self.vector {
            mda_mem::LINE_BYTES
        } else {
            mda_mem::WORD_BYTES
        }
    }
}

/// One element of the executed trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// A memory operation.
    Mem(MemOp),
    /// `n` non-memory micro-ops (ALU work and loop control).
    Compute(u32),
}

/// A pull-based position in a trace. Each call hands over the next batch
/// of operations in a caller-owned buffer, so several traces can be
/// interleaved op by op without any of them being held whole in memory.
pub trait TraceCursor {
    /// Replaces the contents of `batch` with the next non-empty batch of
    /// operations; returns `false`, leaving `batch` empty, once the trace
    /// is exhausted.
    fn next_batch(&mut self, batch: &mut Vec<TraceOp>) -> bool;
}

/// Anything that can produce a trace for a given code-generation target:
/// compiled [`Program`]s, and the hand-rolled HTAP generators in
/// `mda-workloads`.
pub trait TraceSource {
    /// Workload name (for reports).
    fn name(&self) -> &str;

    /// Opens a cursor at the start of the trace for `opts`.
    fn cursor(&self, opts: &CodegenOptions) -> Box<dyn TraceCursor + '_>;

    /// Streams the whole trace into `sink`, one batch at a time.
    fn generate(&self, opts: &CodegenOptions, sink: &mut dyn FnMut(TraceOp)) {
        let mut cursor = self.cursor(opts);
        let mut batch = Vec::new();
        while cursor.next_batch(&mut batch) {
            batch.iter().for_each(|op| sink(*op));
        }
    }
}

impl TraceSource for Program {
    fn name(&self) -> &str {
        Program::name(self)
    }

    fn cursor(&self, opts: &CodegenOptions) -> Box<dyn TraceCursor + '_> {
        Box::new(Walker {
            pending: self.nests().iter(),
            current: None,
            layout: Layout::plan(self, opts.layout),
            opts: *opts,
            idx: Vec::new(),
        })
    }
}

/// The effective direction of a reference: its direction with respect to
/// the deepest loop variable that actually moves it (used for invariant
/// references, whose preference comes from the loop level that sweeps
/// them).
fn effective_direction(r: &ArrayRef, depth: usize) -> Direction {
    for v in (0..depth).rev() {
        let row_c = r.row.coeff_of(v);
        let col_c = r.col.coeff_of(v);
        match (row_c, col_c) {
            (0, 0) => continue,
            (0, _) => return Direction::Row,
            _ => return Direction::Col,
        }
    }
    Direction::Row
}

/// The cursor over a [`Program`]'s trace: one batch per execution of a
/// nest's innermost loop. The outer loops advance as an odometer over
/// `idx`, in the order a recursive walk visits them, and each loop's
/// (possibly triangular) bounds are evaluated from the loops outside it.
struct Walker<'a> {
    /// Nests not yet entered.
    pending: std::slice::Iter<'a, LoopNest>,
    /// The nest being walked and its plan; `None` before the first nest.
    current: Option<(&'a LoopNest, NestPlan)>,
    layout: Layout,
    opts: CodegenOptions,
    /// The loop variables; empty until the nest's first batch.
    idx: Vec<i64>,
}

impl TraceCursor for Walker<'_> {
    fn next_batch(&mut self, out: &mut Vec<TraceOp>) -> bool {
        out.clear();
        while out.is_empty() {
            match self.current.take() {
                Some((nest, plan)) if self.advance(nest) => {
                    self.emit_innermost(nest, &plan, out);
                    self.current = Some((nest, plan));
                }
                _ => {
                    let Some(nest) = self.pending.next() else { return false };
                    self.current = Some((nest, plan_nest(nest, &self.opts)));
                    self.idx.clear();
                }
            }
        }
        true
    }
}

impl Walker<'_> {
    /// Moves `idx` to the nest's next innermost-loop execution; returns
    /// `false` once every outer loop is done.
    fn advance(&mut self, nest: &LoopNest) -> bool {
        let inner = nest.innermost();
        // Each pass either enters loop `k` at its lower bound or steps the
        // loop enclosing `k` (once `k`'s loop is empty or done).
        let mut enter = self.idx.is_empty();
        let mut k = if enter { 0 } else { inner };
        self.idx.resize(nest.depth(), 0);
        loop {
            if enter && k == inner {
                return true;
            } else if enter {
                self.idx[k] = nest.loops[k].lo.eval(&self.idx);
            } else if k == 0 {
                return false;
            } else {
                k -= 1;
                self.idx[k] += 1;
            }
            enter = self.idx[k] < nest.loops[k].hi.eval(&self.idx);
            k += usize::from(enter);
        }
    }

    fn addr_of(&self, r: &ArrayRef) -> WordAddr {
        let i = r.row.eval(&self.idx);
        let j = r.col.eval(&self.idx);
        debug_assert!(i >= 0 && j >= 0, "negative subscript");
        self.layout.of(r.array).addr(i as u64, j as u64)
    }

    fn emit_scalar(&self, r: &ArrayRef, dir: Direction, out: &mut Vec<TraceOp>) {
        out.push(TraceOp::Mem(MemOp {
            word: self.addr_of(r),
            orient: dir.orientation(),
            vector: false,
            write: r.is_write(),
            stream: r.stream,
        }));
    }

    fn emit_invariants(
        &self,
        nest: &LoopNest,
        plan: &NestPlan,
        kind: RefKind,
        out: &mut Vec<TraceOp>,
    ) {
        for (r, a) in nest.refs.iter().zip(&plan.refs) {
            if a.direction == Direction::Invariant && r.kind == kind {
                self.emit_scalar(r, effective_direction(r, nest.depth()), out);
            }
        }
    }

    /// The lines touched by the eight words of `r` across iterations
    /// `[v, v+8)`: one when the chunk is line-aligned, two when an
    /// unaligned SIMD access straddles a line boundary.
    fn vector_lines(&mut self, r: &ArrayRef, dir: Direction, v: i64) -> (LineKey, Option<LineKey>) {
        // `idx` holds one variable per loop; the last is the innermost.
        let innermost = self.idx.len() - 1;
        self.idx[innermost] = v;
        let w0 = self.addr_of(r);
        self.idx[innermost] = v + LINE_WORDS as i64 - 1;
        let w7 = self.addr_of(r);
        let orient = dir.orientation();
        let first = LineKey::containing(w0, orient);
        if first.contains(w7) {
            (first, None)
        } else {
            (first, Some(LineKey::containing(w7, orient)))
        }
    }

    /// Scalar iterations to peel so the first non-invariant reference's
    /// chunk covers exactly one line — for ascending *or* descending unit
    /// strides (0 when already aligned or undecidable).
    fn peel_for_alignment(&mut self, nest: &LoopNest, plan: &NestPlan, lo: i64, hi: i64) -> i64 {
        let lead = plan.refs.iter().position(|a| a.direction != Direction::Invariant);
        let Some(ri) = lead else { return 0 };
        let (r, dir) = (&nest.refs[ri], plan.refs[ri].direction);
        for peel in 0..LINE_WORDS as i64 {
            if lo + peel + LINE_WORDS as i64 > hi {
                break;
            }
            let (_, straddle) = self.vector_lines(r, dir, lo + peel);
            if straddle.is_none() {
                return peel;
            }
        }
        0
    }

    /// Emits one execution of the innermost loop at the current `idx`.
    fn emit_innermost(&mut self, nest: &LoopNest, plan: &NestPlan, out: &mut Vec<TraceOp>) {
        let innermost = nest.innermost();
        let lo = nest.loops[innermost].lo.eval(&self.idx);
        let hi = nest.loops[innermost].hi.eval(&self.idx);
        if hi <= lo {
            return;
        }
        let flops = nest.flops_per_iter;
        let overhead = self.opts.loop_overhead;

        self.emit_invariants(nest, plan, RefKind::Read, out);

        let peel = if plan.vectorized { self.peel_for_alignment(nest, plan, lo, hi) } else { 0 };
        let mut v = lo;
        while v < hi {
            let vectorize = plan.vectorized && v >= lo + peel && v + LINE_WORDS as i64 <= hi;
            if vectorize {
                for (ri, r) in nest.refs.iter().enumerate() {
                    let a = plan.refs[ri];
                    if a.direction == Direction::Invariant {
                        continue;
                    }
                    let (first, second) = self.vector_lines(r, a.direction, v);
                    if r.is_write() && second.is_some() {
                        // A straddling vector store would dirty two full
                        // lines; emit the masked store as scalars instead.
                        for lane in 0..LINE_WORDS as i64 {
                            self.idx[innermost] = v + lane;
                            self.emit_scalar(r, a.direction, out);
                        }
                    } else {
                        for line in std::iter::once(first).chain(second) {
                            out.push(TraceOp::Mem(MemOp {
                                word: line.word_at(0),
                                orient: line.orient,
                                vector: true,
                                write: r.is_write(),
                                stream: r.stream,
                            }));
                        }
                    }
                }
            } else {
                self.idx[innermost] = v;
                for (r, a) in nest.refs.iter().zip(&plan.refs) {
                    if a.direction != Direction::Invariant {
                        self.emit_scalar(r, a.direction, out);
                    }
                }
            }
            if flops + overhead > 0 {
                out.push(TraceOp::Compute(flops + overhead));
            }
            v += if vectorize { LINE_WORDS as i64 } else { 1 };
        }

        self.emit_invariants(nest, plan, RefKind::Write, out);
    }
}

/// Aggregate operation counts of a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Memory micro-ops.
    pub mem_ops: u64,
    /// Vector memory micro-ops (subset of `mem_ops`).
    pub vector_mem_ops: u64,
    /// Non-memory micro-ops.
    pub compute_uops: u64,
    /// Bytes touched by memory ops (8 per scalar, 64 per vector).
    pub bytes: u64,
}

impl OpCounts {
    /// Counts one trace element.
    pub fn record(&mut self, op: &TraceOp) {
        match op {
            TraceOp::Mem(m) => {
                self.mem_ops += 1;
                self.bytes += m.bytes();
                if m.vector {
                    self.vector_mem_ops += 1;
                }
            }
            TraceOp::Compute(n) => self.compute_uops += u64::from(*n),
        }
    }
}

/// Runs generation just to count operations.
pub fn count_ops(src: &dyn TraceSource, opts: &CodegenOptions) -> OpCounts {
    let mut c = OpCounts::default();
    src.generate(opts, &mut |op| c.record(&op));
    c
}

/// Access-type distribution by data volume — the quantity plotted in the
/// paper's Fig. 10 (row/column × scalar/vector).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessMix {
    /// Bytes moved by row-preference scalar ops.
    pub row_scalar: u64,
    /// Bytes moved by row-preference vector ops.
    pub row_vector: u64,
    /// Bytes moved by column-preference scalar ops.
    pub col_scalar: u64,
    /// Bytes moved by column-preference vector ops.
    pub col_vector: u64,
}

impl AccessMix {
    /// Total bytes.
    fn total(&self) -> u64 {
        self.row_scalar + self.row_vector + self.col_scalar + self.col_vector
    }

    /// `(row_scalar, row_vector, col_scalar, col_vector)` as fractions of
    /// the total volume.
    pub fn fractions(&self) -> (f64, f64, f64, f64) {
        let t = self.total().max(1) as f64;
        (
            self.row_scalar as f64 / t,
            self.row_vector as f64 / t,
            self.col_scalar as f64 / t,
            self.col_vector as f64 / t,
        )
    }

    /// Fraction of volume accessed with column preference.
    pub fn col_fraction(&self) -> f64 {
        let (_, _, cs, cv) = self.fractions();
        cs + cv
    }
}

/// Computes the Fig. 10 access mix of `src` under `opts`.
pub fn access_mix(src: &dyn TraceSource, opts: &CodegenOptions) -> AccessMix {
    let mut mix = AccessMix::default();
    src.generate(opts, &mut |op| {
        if let TraceOp::Mem(m) = op {
            let slot = match (m.orient, m.vector) {
                (Orientation::Row, false) => &mut mix.row_scalar,
                (Orientation::Row, true) => &mut mix.row_vector,
                (Orientation::Col, false) => &mut mix.col_scalar,
                (Orientation::Col, true) => &mut mix.col_vector,
            };
            *slot += m.bytes();
        }
    });
    mix
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::AffineExpr;
    use crate::ir::{ArrayRef, Loop};

    fn collect(p: &Program, opts: &CodegenOptions) -> Vec<TraceOp> {
        let mut v = Vec::new();
        p.generate(opts, &mut |op| v.push(op));
        v
    }

    fn row_walk(n: i64) -> Program {
        let mut p = Program::new("rowwalk");
        let a = p.array("A", n as u64, n as u64);
        p.add_nest(LoopNest {
            loops: vec![Loop::constant(0, n), Loop::constant(0, n)],
            refs: vec![ArrayRef::read(a, AffineExpr::var(0), AffineExpr::var(1))],
            flops_per_iter: 1,
        });
        p
    }

    fn col_walk(n: i64) -> Program {
        let mut p = Program::new("colwalk");
        let a = p.array("A", n as u64, n as u64);
        p.add_nest(LoopNest {
            loops: vec![Loop::constant(0, n), Loop::constant(0, n)],
            refs: vec![ArrayRef::read(a, AffineExpr::var(1), AffineExpr::var(0))],
            flops_per_iter: 1,
        });
        p
    }

    #[test]
    fn row_walk_vectorizes_on_both_targets() {
        for opts in [CodegenOptions::baseline(), CodegenOptions::mda()] {
            let c = count_ops(&row_walk(16), &opts);
            assert_eq!(c.mem_ops, 16 * 16 / 8, "{opts:?}");
            assert_eq!(c.vector_mem_ops, c.mem_ops);
            assert_eq!(c.bytes, 16 * 16 * 8);
        }
    }

    #[test]
    fn col_walk_vectorizes_only_on_mda() {
        let mda = count_ops(&col_walk(16), &CodegenOptions::mda());
        assert_eq!(mda.mem_ops, 32);
        assert_eq!(mda.vector_mem_ops, 32);

        let base = count_ops(&col_walk(16), &CodegenOptions::baseline());
        assert_eq!(base.mem_ops, 256, "scalar column walk");
        assert_eq!(base.vector_mem_ops, 0);
    }

    #[test]
    fn col_vector_ops_are_column_oriented_lines() {
        let ops = collect(&col_walk(16), &CodegenOptions::mda());
        for op in &ops {
            if let TraceOp::Mem(m) = op {
                assert!(m.vector);
                assert_eq!(m.orient, Orientation::Col);
                let line = LineKey::containing(m.word, Orientation::Col);
                assert_eq!(line.offset_of(m.word), Some(0));
            }
        }
    }

    #[test]
    fn invariants_are_register_promoted() {
        // acc[i][0] += A[i][k] over k: the accumulator is read once and
        // written once per i, not per k.
        let mut p = Program::new("t");
        let a = p.array("A", 8, 64);
        let acc = p.array("acc", 8, 1);
        p.add_nest(LoopNest {
            loops: vec![Loop::constant(0, 8), Loop::constant(0, 64)],
            refs: vec![
                ArrayRef::read(acc, AffineExpr::var(0), AffineExpr::constant(0)),
                ArrayRef::read(a, AffineExpr::var(0), AffineExpr::var(1)),
                ArrayRef::write(acc, AffineExpr::var(0), AffineExpr::constant(0)),
            ],
            flops_per_iter: 1,
        });
        let ops = collect(&p, &CodegenOptions::mda());
        let scalar_ops = ops.iter().filter(|o| matches!(o, TraceOp::Mem(m) if !m.vector)).count();
        let vec_ops = ops.iter().filter(|o| matches!(o, TraceOp::Mem(m) if m.vector)).count();
        assert_eq!(scalar_ops, 8 * 2, "one read + one write of acc per i");
        assert_eq!(vec_ops, 8 * 64 / 8);
        // First op of each i-iteration is the promoted read, last the write.
        assert!(matches!(ops[0], TraceOp::Mem(m) if !m.vector && !m.write));
        assert!(matches!(ops.last().unwrap(), TraceOp::Mem(m) if !m.vector && m.write));
    }

    #[test]
    fn triangular_loop_gets_scalar_prologue() {
        // for i in 0..16 { for j in i..16 { read A[i][j] } }
        let mut p = Program::new("tri");
        let a = p.array("A", 16, 16);
        p.add_nest(LoopNest {
            loops: vec![
                Loop::constant(0, 16),
                Loop::new(AffineExpr::var(0), AffineExpr::constant(16)),
            ],
            refs: vec![ArrayRef::read(a, AffineExpr::var(0), AffineExpr::var(1))],
            flops_per_iter: 1,
        });
        let ops = collect(&p, &CodegenOptions::mda());
        let scalars = ops.iter().filter(|o| matches!(o, TraceOp::Mem(m) if !m.vector)).count();
        let vectors = ops.iter().filter(|o| matches!(o, TraceOp::Mem(m) if m.vector)).count();
        // Row i: j from i..16 → (8 − i%8) % 8 … scalar head then aligned
        // vector chunks. Total elements = 136.
        let total = scalars + vectors * 8;
        assert_eq!(total, 136);
        assert!(vectors > 0 && scalars > 0);
    }

    #[test]
    fn access_mix_classifies_volume() {
        // Mixed kernel: one row operand, one column operand.
        let mut p = Program::new("mix");
        let a = p.array("A", 16, 16);
        let b = p.array("B", 16, 16);
        p.add_nest(LoopNest {
            loops: vec![Loop::constant(0, 16), Loop::constant(0, 16)],
            refs: vec![
                ArrayRef::read(a, AffineExpr::var(0), AffineExpr::var(1)),
                ArrayRef::read(b, AffineExpr::var(1), AffineExpr::var(0)),
            ],
            flops_per_iter: 1,
        });
        let mix = access_mix(&p, &CodegenOptions::mda());
        let (rs, rv, cs, cv) = mix.fractions();
        assert_eq!(rs, 0.0);
        assert_eq!(cs, 0.0);
        assert!((rv - 0.5).abs() < 1e-12);
        assert!((cv - 0.5).abs() < 1e-12);
        assert!((mix.col_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_inner_loop_emits_nothing() {
        let mut p = Program::new("t");
        let a = p.array("A", 8, 8);
        p.add_nest(LoopNest {
            loops: vec![
                Loop::constant(0, 8),
                // j in 8..8 — empty.
                Loop::constant(8, 8),
            ],
            refs: vec![ArrayRef::read(a, AffineExpr::var(0), AffineExpr::var(1))],
            flops_per_iter: 1,
        });
        assert_eq!(count_ops(&p, &CodegenOptions::mda()).mem_ops, 0);
    }

    #[test]
    fn footprint_reflects_layout_padding() {
        let p = row_walk(10);
        let bytes = |opts: CodegenOptions| Layout::plan(&p, opts.layout).total_bytes();
        assert!(bytes(CodegenOptions::mda()) >= bytes(CodegenOptions::baseline()));
    }

    #[test]
    fn program_without_nests_yields_an_empty_trace() {
        let mut p = Program::new("empty");
        p.array("A", 8, 8);
        for opts in [CodegenOptions::baseline(), CodegenOptions::mda()] {
            let mut batch = vec![TraceOp::Compute(1)];
            assert!(!p.cursor(&opts).next_batch(&mut batch));
            assert!(batch.is_empty(), "an exhausted cursor leaves the batch empty");
            assert_eq!(count_ops(&p, &opts), OpCounts::default());
        }
    }
}

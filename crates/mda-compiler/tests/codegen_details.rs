//! Focused integration tests for code-generation corner cases.

use mda_compiler::expr::AffineExpr;
use mda_compiler::ir::{ArrayRef, Loop, LoopNest, Program};
use mda_compiler::trace::{TraceOp, TraceSource};
use mda_compiler::vectorize::CodegenOptions;
use mda_mem::Orientation;

fn ops(p: &Program, opts: &CodegenOptions) -> Vec<TraceOp> {
    let mut v = Vec::new();
    p.generate(opts, &mut |op| v.push(op));
    v
}

#[test]
fn promoted_invariant_down_a_column_carries_column_preference() {
    // acc[i][0] += X[i][k] with k innermost: the accumulator is invariant
    // in k, and the loop that sweeps it (i) moves its ROW subscript — the
    // promoted scalar ops must carry column preference so a 1P2L hierarchy
    // fetches the accumulator as a column line.
    let mut p = Program::new("colacc");
    let x = p.array("X", 32, 32);
    let acc = p.array("acc", 32, 1);
    p.add_nest(LoopNest {
        loops: vec![Loop::constant(0, 32), Loop::constant(0, 32)],
        refs: vec![
            ArrayRef::read(acc, AffineExpr::var(0), AffineExpr::constant(0)),
            ArrayRef::read(x, AffineExpr::var(0), AffineExpr::var(1)),
            ArrayRef::write(acc, AffineExpr::var(0), AffineExpr::constant(0)),
        ],
        flops_per_iter: 1,
    });
    let mut acc_orients = Vec::new();
    p.generate(&CodegenOptions::mda(), &mut |op| {
        if let TraceOp::Mem(m) = op {
            if !m.vector {
                acc_orients.push(m.orient);
            }
        }
    });
    assert!(!acc_orients.is_empty());
    assert!(
        acc_orients.iter().all(|o| *o == Orientation::Col),
        "promoted accumulator ops must prefer columns"
    );
}

#[test]
fn loop_overhead_knob_scales_compute_volume() {
    let build = |overhead| {
        let mut p = Program::new("t");
        let a = p.array("A", 16, 16);
        p.add_nest(LoopNest {
            loops: vec![Loop::constant(0, 16), Loop::constant(0, 16)],
            refs: vec![ArrayRef::read(a, AffineExpr::var(0), AffineExpr::var(1))],
            flops_per_iter: 1,
        });
        let opts = CodegenOptions { loop_overhead: overhead, ..CodegenOptions::mda() };
        let mut compute = 0u64;
        p.generate(&opts, &mut |op| {
            if let TraceOp::Compute(n) = op {
                compute += u64::from(n);
            }
        });
        compute
    };
    let lean = build(0);
    let heavy = build(3);
    // 32 vector chunks: overhead adds 3 µops per chunk.
    assert_eq!(heavy - lean, 3 * 32);
}

#[test]
fn multiple_nests_execute_in_program_order() {
    let mut p = Program::new("phases");
    let a = p.array("A", 16, 16);
    // Nest 1 reads row-wise (stream 0), nest 2 column-wise (stream 1).
    p.add_nest(LoopNest {
        loops: vec![Loop::constant(0, 16), Loop::constant(0, 16)],
        refs: vec![ArrayRef::read(a, AffineExpr::var(0), AffineExpr::var(1))],
        flops_per_iter: 0,
    });
    p.add_nest(LoopNest {
        loops: vec![Loop::constant(0, 16), Loop::constant(0, 16)],
        refs: vec![ArrayRef::read(a, AffineExpr::var(1), AffineExpr::var(0))],
        flops_per_iter: 0,
    });
    let trace = ops(&p, &CodegenOptions::mda());
    let streams: Vec<u32> = trace
        .iter()
        .filter_map(|op| match op {
            TraceOp::Mem(m) => Some(m.stream),
            _ => None,
        })
        .collect();
    let first_of_1 = streams.iter().position(|s| *s == 1).expect("nest 2 ran");
    assert!(streams[..first_of_1].iter().all(|s| *s == 0), "all of nest 1 must precede nest 2");
}

#[test]
fn negative_stride_walk_emits_descending_vectors() {
    // for i { for j { read A[i][31 - j] } }: row direction with stride −1;
    // chunks are full lines visited in descending order.
    let mut p = Program::new("rev");
    let a = p.array("A", 32, 32);
    p.add_nest(LoopNest {
        loops: vec![Loop::constant(0, 32), Loop::constant(0, 32)],
        refs: vec![ArrayRef::read(a, AffineExpr::var(0), AffineExpr::scaled_var(1, -1).plus(31))],
        flops_per_iter: 0,
    });
    let trace = ops(&p, &CodegenOptions::mda());
    let vectors = trace.iter().filter(|o| matches!(o, TraceOp::Mem(m) if m.vector)).count();
    let scalars = trace.iter().filter(|o| matches!(o, TraceOp::Mem(m) if !m.vector)).count();
    // Descending unit stride peels to line alignment and then vectorizes
    // every chunk exactly once: 32 × 32 / 8 single-line vector ops.
    assert_eq!(vectors, 32 * 32 / 8);
    assert_eq!(scalars, 0);
}

#[test]
fn single_loop_nests_work() {
    let mut p = Program::new("one");
    let a = p.array("A", 1, 64);
    p.add_nest(LoopNest {
        loops: vec![Loop::constant(0, 64)],
        refs: vec![ArrayRef::read(a, AffineExpr::constant(0), AffineExpr::var(0))],
        flops_per_iter: 1,
    });
    let c = mda_compiler::trace::count_ops(&p, &CodegenOptions::mda());
    assert_eq!(c.mem_ops, 8);
    assert_eq!(c.vector_mem_ops, 8);
}

#[test]
fn mixed_vectorizable_and_blocked_nests_coexist() {
    // Nest 1 vectorizes; nest 2 (non-unit stride) stays scalar — per-nest
    // decisions are independent.
    let mut p = Program::new("mixed");
    let a = p.array("A", 32, 64);
    p.add_nest(LoopNest {
        loops: vec![Loop::constant(0, 32), Loop::constant(0, 32)],
        refs: vec![ArrayRef::read(a, AffineExpr::var(0), AffineExpr::var(1))],
        flops_per_iter: 0,
    });
    p.add_nest(LoopNest {
        loops: vec![Loop::constant(0, 32)],
        refs: vec![ArrayRef::read(a, AffineExpr::constant(0), AffineExpr::scaled_var(0, 2))],
        flops_per_iter: 0,
    });
    let trace = ops(&p, &CodegenOptions::mda());
    let by_stream = |s: u32, vector: bool| {
        trace
            .iter()
            .filter(|o| matches!(o, TraceOp::Mem(m) if m.stream == s && m.vector == vector))
            .count()
    };
    assert_eq!(by_stream(0, true), 32 * 32 / 8);
    assert_eq!(by_stream(0, false), 0);
    assert_eq!(by_stream(1, true), 0);
    assert_eq!(by_stream(1, false), 32);
}

//! Property tests for the code generator: vectorization must never change
//! which data a program touches, only how it is packaged.

use mda_compiler::expr::AffineExpr;
use mda_compiler::ir::{ArrayRef, Loop, LoopNest, Program};
use mda_compiler::layout::{Layout, LayoutKind};
use mda_compiler::trace::{TraceOp, TraceSource};
use mda_compiler::vectorize::CodegenOptions;
use mda_mem::{LineKey, Orientation, WordAddr};
use proptest::prelude::*;
use std::collections::HashSet;

/// A random 2-D walk: loops over (i, j) with a reference whose subscripts
/// pick i, j, or a constant per dimension.
#[derive(Debug, Clone)]
struct WalkSpec {
    rows: u64,
    cols: u64,
    row_pick: u8, // 0 = i, 1 = j, 2 = const
    col_pick: u8,
    write: bool,
    aligned: bool,
}

fn walk_strategy() -> impl Strategy<Value = WalkSpec> {
    (1u64..5, 1u64..5, 0u8..3, 0u8..3, any::<bool>(), any::<bool>()).prop_map(
        |(rb, cb, row_pick, col_pick, write, aligned)| WalkSpec {
            rows: rb * 8,
            cols: cb * 8,
            row_pick,
            col_pick,
            write,
            aligned,
        },
    )
}

fn build(spec: &WalkSpec) -> Program {
    let mut p = Program::new("prop");
    // Square array so either loop variable can index either dimension.
    let dim = spec.rows.max(spec.cols);
    let a = p.array("A", dim, dim);
    let pick = |which: u8| match which {
        0 => AffineExpr::var(0),
        1 => AffineExpr::var(1),
        _ => AffineExpr::constant(0),
    };
    let (lo_i, hi_i) = if spec.aligned { (0, spec.rows as i64) } else { (1, spec.rows as i64 - 1) };
    let r = if spec.write {
        ArrayRef::write(a, pick(spec.row_pick), pick(spec.col_pick))
    } else {
        ArrayRef::read(a, pick(spec.row_pick), pick(spec.col_pick))
    };
    p.add_nest(LoopNest {
        loops: vec![Loop::constant(lo_i, hi_i), Loop::constant(0, spec.cols as i64)],
        refs: vec![r],
        flops_per_iter: 1,
    });
    p
}

/// All words touched by the trace (vector ops expanded to their lines).
fn touched_words(p: &Program, opts: &CodegenOptions) -> HashSet<WordAddr> {
    let mut words = HashSet::new();
    p.generate(opts, &mut |op| {
        if let TraceOp::Mem(m) = op {
            if m.vector {
                words.extend(LineKey::containing(m.word, m.orient).words());
            } else {
                words.insert(m.word);
            }
        }
    });
    words
}

fn scalar_opts(layout: LayoutKind) -> CodegenOptions {
    CodegenOptions { layout, vectorize_rows: false, vectorize_cols: false, loop_overhead: 0 }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The MDA-vectorized trace covers every word the scalar trace touches.
    #[test]
    fn vectorization_preserves_coverage(spec in walk_strategy()) {
        let p = build(&spec);
        let scalar = touched_words(&p, &scalar_opts(LayoutKind::Tiled2D));
        let vectored = touched_words(&p, &CodegenOptions::mda());
        for w in &scalar {
            prop_assert!(vectored.contains(w), "vector trace misses {w}");
        }
        // Over-fetch is bounded by line rounding: at most 2× the scalar
        // coverage (an unaligned vector op touches at most two lines).
        prop_assert!(vectored.len() <= scalar.len().max(1) * 2);
    }

    /// Aligned full-rectangle walks cover exactly the same words.
    #[test]
    fn aligned_walks_cover_exactly(mut spec in walk_strategy()) {
        spec.aligned = true;
        let p = build(&spec);
        let scalar = touched_words(&p, &scalar_opts(LayoutKind::Tiled2D));
        let vectored = touched_words(&p, &CodegenOptions::mda());
        prop_assert_eq!(scalar, vectored);
    }

    /// Generation is deterministic.
    #[test]
    fn generation_is_deterministic(spec in walk_strategy()) {
        let p = build(&spec);
        let mut a = Vec::new();
        let mut b = Vec::new();
        p.generate(&CodegenOptions::mda(), &mut |op| a.push(op));
        p.generate(&CodegenOptions::mda(), &mut |op| b.push(op));
        prop_assert_eq!(a, b);
    }

    /// The baseline target never emits column vectors, under any layout.
    #[test]
    fn baseline_emits_no_column_vectors(spec in walk_strategy()) {
        let p = build(&spec);
        for opts in [CodegenOptions::baseline(), CodegenOptions::baseline_on_mda_layout()] {
            p.generate(&opts, &mut |op| {
                if let TraceOp::Mem(m) = op {
                    assert!(
                        !(m.vector && m.orient == Orientation::Col),
                        "baseline produced a column vector op"
                    );
                }
            });
        }
    }

    /// Every generated address stays inside the planned layout footprint.
    #[test]
    fn addresses_stay_in_bounds(spec in walk_strategy()) {
        let p = build(&spec);
        for opts in [CodegenOptions::baseline(), CodegenOptions::mda()] {
            let bound = Layout::plan(&p, opts.layout).total_bytes();
            p.generate(&opts, &mut |op| {
                if let TraceOp::Mem(m) = op {
                    let top = if m.vector {
                        LineKey::containing(m.word, m.orient)
                            .words()
                            .map(|w| w.byte_addr())
                            .max()
                            .unwrap()
                    } else {
                        m.word.byte_addr()
                    };
                    assert!(top + 8 <= bound, "address {top:#x} beyond footprint {bound:#x}");
                }
            });
        }
    }

    /// Vector ops always address offset zero of a line of their own
    /// orientation (the cache interface contract).
    #[test]
    fn vector_ops_are_line_aligned(spec in walk_strategy()) {
        let p = build(&spec);
        p.generate(&CodegenOptions::mda(), &mut |op| {
            if let TraceOp::Mem(m) = op {
                if m.vector {
                    let line = LineKey::containing(m.word, m.orient);
                    assert_eq!(line.offset_of(m.word), Some(0));
                }
            }
        });
    }
}

//! Property tests for iteration-space tiling: semantic preservation on
//! arbitrary rectangular nests.

use mda_compiler::expr::AffineExpr;
use mda_compiler::ir::{ArrayRef, Loop, LoopNest, Program};
use mda_compiler::tiling::tile_program;
use mda_compiler::trace::{TraceOp, TraceSource};
use mda_compiler::vectorize::CodegenOptions;
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
struct NestSpec {
    blocks_i: i64,
    blocks_j: i64,
    refs: Vec<(u8, u8, bool)>,
    tile_i: bool,
    tile_j: bool,
}

fn spec_strategy() -> impl Strategy<Value = NestSpec> {
    (
        1i64..4,
        1i64..4,
        proptest::collection::vec((0u8..3, 0u8..3, any::<bool>()), 1..4),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(blocks_i, blocks_j, refs, tile_i, tile_j)| NestSpec {
            blocks_i,
            blocks_j,
            refs,
            tile_i,
            tile_j,
        })
}

fn build(spec: &NestSpec) -> Program {
    let mut p = Program::new("prop");
    let dim = 8 * spec.blocks_i.max(spec.blocks_j) as u64;
    let a = p.array("A", dim, dim);
    let pick = |w: u8| match w {
        0 => AffineExpr::var(0),
        1 => AffineExpr::var(1),
        _ => AffineExpr::constant(3),
    };
    let refs = spec
        .refs
        .iter()
        .map(|(rp, cp, write)| {
            if *write {
                ArrayRef::write(a, pick(*rp), pick(*cp))
            } else {
                ArrayRef::read(a, pick(*rp), pick(*cp))
            }
        })
        .collect();
    p.add_nest(LoopNest {
        loops: vec![Loop::constant(0, 8 * spec.blocks_i), Loop::constant(0, 8 * spec.blocks_j)],
        refs,
        flops_per_iter: 1,
    });
    p
}

/// Per-word access counts of the scalar lowering (exact semantics).
fn scalar_histogram(p: &Program) -> HashMap<(u64, bool), u64> {
    let opts = CodegenOptions {
        layout: mda_compiler::LayoutKind::Tiled2D,
        vectorize_rows: false,
        vectorize_cols: false,
        loop_overhead: 0,
    };
    let mut h = HashMap::new();
    p.generate(&opts, &mut |op| {
        if let TraceOp::Mem(m) = op {
            *h.entry((m.word.0, m.write)).or_default() += 1;
        }
    });
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Tiling preserves the exact per-word access histogram of the scalar
    /// lowering (it only reorders iterations). Invariant refs are excluded
    /// by construction when tiling changes promotion scope, so this runs
    /// both versions with promotion disabled via the scalar path — counts
    /// may differ only for refs invariant in the innermost loop, which the
    /// generator spec cannot produce here (every ref uses v0 and/or v1 or
    /// is fully constant, and constants are promoted identically per
    /// instance count when both loops are tiled or untouched together).
    #[test]
    fn tiling_preserves_scalar_access_histogram(spec in spec_strategy()) {
        // Refs invariant in the innermost loop are register-promoted once
        // per innermost-loop *instance*; tiling multiplies the number of
        // instances, so their access counts legitimately change (the same
        // effect the blocked-sgemm test in ext_tiling quantifies). Restrict
        // the exact-histogram property to specs without such refs whenever
        // any tiling happens.
        let has_inner_invariant =
            spec.refs.iter().any(|(rp, cp, _)| *rp != 1 && *cp != 1);
        prop_assume!(!has_inner_invariant || (!spec.tile_i && !spec.tile_j));

        let p = build(&spec);
        let mut dims = Vec::new();
        if spec.tile_i {
            dims.push((0usize, 8i64));
        }
        if spec.tile_j {
            dims.push((1usize, 8i64));
        }
        let tiled = tile_program(&p, |_, _| Some(dims.clone())).expect("rectangular");

        let a = scalar_histogram(&p);
        let b = scalar_histogram(&tiled);
        // Reads must match exactly; writes too.
        prop_assert_eq!(a, b);
    }

    /// Tiled nests always validate and keep the right depth.
    #[test]
    fn tiled_nests_validate(spec in spec_strategy()) {
        let p = build(&spec);
        let n_tiled = usize::from(spec.tile_i) + usize::from(spec.tile_j);
        let mut dims = Vec::new();
        if spec.tile_i {
            dims.push((0usize, 8i64));
        }
        if spec.tile_j {
            dims.push((1usize, 8i64));
        }
        let tiled = tile_program(&p, |_, _| Some(dims.clone())).expect("rectangular");
        for nest in tiled.nests() {
            prop_assert_eq!(nest.validate(), Ok(()));
            prop_assert_eq!(nest.depth(), 2 + n_tiled);
        }
    }
}

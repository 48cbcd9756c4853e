//! Iteration-space tiling (Lam/Rothberg/Wolf-style loop blocking) — the
//! hardware/software-collaborative optimization the paper names as future
//! work: "the compiler can tile a loop nest such that the tile size (in
//! each dimension) matches the 2-D block size used by the 2P2L cache"
//! (paper Sec. X).
//!
//! [`tile`] rewrites a perfect nest so that selected loops iterate over
//! fixed-size blocks: each tiled loop `v in lo..hi` becomes an outer
//! tile-index loop plus an intra-tile loop of `size` iterations, and every
//! subscript/bound is renumbered accordingly. Choosing `size = 8` aligns
//! the traversal with the 8×8-word MDA blocks.

use crate::expr::{AffineExpr, VarId};
use crate::ir::{Loop, LoopNest, Program};

/// Why a nest could not be tiled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TileError {
    /// The named variable does not exist in the nest.
    NoSuchLoop(VarId),
    /// The tiled loop's bounds reference outer variables (e.g. a
    /// triangular loop), which plain rectangular tiling cannot express in
    /// this affine IR.
    NonRectangular(VarId),
    /// The loop's trip count is not a multiple of the tile size (remainder
    /// tiles are not generated).
    Indivisible {
        /// Offending variable.
        var: VarId,
        /// Its trip count.
        trip: i64,
        /// The requested tile size.
        size: i64,
    },
    /// A non-positive tile size was requested.
    BadSize(i64),
}

impl std::fmt::Display for TileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TileError::NoSuchLoop(v) => write!(f, "loop variable v{v} does not exist"),
            TileError::NonRectangular(v) => {
                write!(f, "loop v{v} has outer-variable-dependent bounds")
            }
            TileError::Indivisible { var, trip, size } => {
                write!(f, "trip count {trip} of v{var} is not a multiple of tile size {size}")
            }
            TileError::BadSize(s) => write!(f, "tile size {s} must be positive"),
        }
    }
}

impl std::error::Error for TileError {}

/// Tiles `nest` on the `(variable, tile_size)` pairs in `spec`.
///
/// The transformed nest orders all tile-index loops first (in the original
/// relative order of their variables), followed by every original loop;
/// tiled loops' bounds become `[size·v_t, size·v_t + size)`.
///
/// # Errors
/// See [`TileError`]. Only rectangular (constant-bound) loops with
/// divisible trip counts can be tiled.
pub fn tile(nest: &LoopNest, spec: &[(VarId, i64)]) -> Result<LoopNest, TileError> {
    let depth = nest.depth();
    for &(v, size) in spec {
        if size <= 0 {
            return Err(TileError::BadSize(size));
        }
        if v >= depth {
            return Err(TileError::NoSuchLoop(v));
        }
        let l = &nest.loops[v];
        if !l.lo.uses_only_outer(0) || !l.hi.uses_only_outer(0) {
            return Err(TileError::NonRectangular(v));
        }
        let trip = l.hi.constant_term() - l.lo.constant_term();
        if trip % size != 0 {
            return Err(TileError::Indivisible { var: v, trip, size });
        }
    }

    let tiled: Vec<(VarId, i64)> = {
        let mut s = spec.to_vec();
        s.sort_by_key(|(v, _)| *v);
        s
    };
    let num_tile_loops = tiled.len();
    // Original variable v lives at position num_tile_loops + v in the new
    // nest; tile loop for the i-th tiled variable lives at position i.
    let remap = |v: VarId| num_tile_loops + v;

    let mut loops = Vec::with_capacity(depth + num_tile_loops);
    // Tile-index loops.
    for (i, &(v, size)) in tiled.iter().enumerate() {
        let l = &nest.loops[v];
        let trip = l.hi.constant_term() - l.lo.constant_term();
        let _ = i;
        loops.push(Loop::constant(0, trip / size));
    }
    // Intra loops (every original loop, renumbered; tiled ones re-bounded).
    for (v, l) in nest.loops.iter().enumerate() {
        if let Some(pos) = tiled.iter().position(|(tv, _)| *tv == v) {
            let (_, size) = tiled[pos];
            let base = AffineExpr::scaled_var(pos, size).plus(l.lo.constant_term());
            loops.push(Loop::new(base.clone(), base.plus(size)));
        } else {
            loops.push(Loop::new(l.lo.remap_vars(remap), l.hi.remap_vars(remap)));
        }
    }

    let refs = nest
        .refs
        .iter()
        .map(|r| {
            let mut r = r.clone();
            r.row = r.row.remap_vars(remap);
            r.col = r.col.remap_vars(remap);
            r
        })
        .collect();

    Ok(LoopNest { loops, refs, flops_per_iter: nest.flops_per_iter })
}

/// Applies [`tile`] to every nest of `program` for which `spec_for` returns
/// a tiling spec, rebuilding the program (stream ids are reassigned in
/// order, so trace statistics remain comparable).
///
/// # Errors
/// Propagates the first [`TileError`].
pub fn tile_program(
    program: &Program,
    mut spec_for: impl FnMut(usize, &LoopNest) -> Option<Vec<(VarId, i64)>>,
) -> Result<Program, TileError> {
    let mut out = Program::new(format!("{}_tiled", program.name()));
    for decl in program.arrays() {
        out.array(decl.name.clone(), decl.rows, decl.cols);
    }
    for (i, nest) in program.nests().iter().enumerate() {
        let new_nest = match spec_for(i, nest) {
            Some(spec) => tile(nest, &spec)?,
            None => nest.clone(),
        };
        out.add_nest(new_nest);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::ArrayRef;
    use crate::trace::{count_ops, TraceOp, TraceSource};
    use crate::vectorize::CodegenOptions;
    use std::collections::HashSet;

    fn walk(n: i64) -> (Program, LoopNest) {
        let mut p = Program::new("t");
        let a = p.array("A", n as u64, n as u64);
        let nest = LoopNest {
            loops: vec![Loop::constant(0, n), Loop::constant(0, n)],
            refs: vec![ArrayRef::read(a, AffineExpr::var(0), AffineExpr::var(1))],
            flops_per_iter: 1,
        };
        p.add_nest(nest.clone());
        (p, nest)
    }

    #[test]
    fn tiled_nest_has_expected_shape() {
        let (_, nest) = walk(32);
        let t = tile(&nest, &[(0, 8), (1, 8)]).expect("tiles");
        assert_eq!(t.depth(), 4);
        // Tile loops iterate over 4 blocks each.
        assert_eq!(t.loops[0].hi.constant_term(), 4);
        assert_eq!(t.loops[1].hi.constant_term(), 4);
        // Intra loop for v0 runs [8·t0, 8·t0 + 8).
        assert_eq!(t.loops[2].lo.coeff_of(0), 8);
        assert_eq!(t.loops[2].hi.coeff_of(0), 8);
        assert_eq!(t.loops[2].hi.constant_term() - t.loops[2].lo.constant_term(), 8);
        assert_eq!(t.validate(), Ok(()));
    }

    #[test]
    fn tiling_preserves_the_footprint_and_volume() {
        let (p, nest) = walk(32);
        let tiled = tile_program(&p, |_, _| Some(vec![(0, 8), (1, 8)])).expect("tiles");
        let _ = nest;
        let opts = CodegenOptions::mda();
        let base = count_ops(&p, &opts);
        let blocked = count_ops(&tiled, &opts);
        assert_eq!(base.bytes, blocked.bytes, "same data volume");

        let words = |prog: &Program| {
            let mut s = HashSet::new();
            prog.generate(&opts, &mut |op| {
                if let TraceOp::Mem(m) = op {
                    if m.vector {
                        s.extend(
                            mda_mem::LineKey::containing(m.word, m.orient).words().map(|w| w.0),
                        );
                    } else {
                        s.insert(m.word.0);
                    }
                }
            });
            s
        };
        assert_eq!(words(&p), words(&tiled), "same footprint");
    }

    #[test]
    fn triangular_loops_are_rejected() {
        let mut p = Program::new("tri");
        let a = p.array("A", 16, 16);
        let nest = LoopNest {
            loops: vec![
                Loop::constant(0, 16),
                Loop::new(AffineExpr::var(0), AffineExpr::constant(16)),
            ],
            refs: vec![ArrayRef::read(a, AffineExpr::var(0), AffineExpr::var(1))],
            flops_per_iter: 0,
        };
        assert_eq!(tile(&nest, &[(1, 8)]), Err(TileError::NonRectangular(1)));
        // Tiling the rectangular outer loop alone is fine.
        assert!(tile(&nest, &[(0, 8)]).is_ok());
    }

    #[test]
    fn indivisible_trip_counts_are_rejected() {
        let (_, nest) = walk(20);
        assert_eq!(
            tile(&nest, &[(0, 8)]),
            Err(TileError::Indivisible { var: 0, trip: 20, size: 8 })
        );
        assert_eq!(tile(&nest, &[(0, 0)]), Err(TileError::BadSize(0)));
        assert_eq!(tile(&nest, &[(7, 8)]), Err(TileError::NoSuchLoop(7)));
    }

    #[test]
    fn tiled_walk_improves_block_locality() {
        // A column-then-row mixed walk revisits each 8×8 block twice; after
        // tiling, the two visits to a block are adjacent in time. Count
        // distinct tiles touched within a sliding window as a locality
        // proxy: the tiled version's transitions between tiles are fewer.
        let mut p = Program::new("mix");
        let a = p.array("A", 32, 32);
        p.add_nest(LoopNest {
            loops: vec![Loop::constant(0, 32), Loop::constant(0, 32)],
            refs: vec![
                ArrayRef::read(a, AffineExpr::var(0), AffineExpr::var(1)),
                ArrayRef::read(a, AffineExpr::var(1), AffineExpr::var(0)),
            ],
            flops_per_iter: 1,
        });
        let tiled = tile_program(&p, |_, _| Some(vec![(0, 8), (1, 8)])).expect("tiles");

        let tile_switches = |prog: &Program| {
            let mut last = u64::MAX;
            let mut switches = 0u64;
            prog.generate(&CodegenOptions::mda(), &mut |op| {
                if let TraceOp::Mem(m) = op {
                    let t = m.word.tile();
                    if t != last {
                        switches += 1;
                        last = t;
                    }
                }
            });
            switches
        };
        assert!(
            tile_switches(&tiled) < tile_switches(&p),
            "blocking should reduce tile transitions"
        );
    }
}

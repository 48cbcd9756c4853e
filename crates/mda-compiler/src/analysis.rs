//! Access-direction prediction (paper Sec. V, "Access Direction
//! Prediction").
//!
//! For a row-major array, the column subscript is the fastest-changing
//! dimension. If the innermost loop index appears only there, the reference
//! walks a row; if it appears only in the row subscript, the reference
//! walks a column; if it appears in both (e.g. `Z[i+j][i+2]` with `i`
//! innermost, the paper's example of a column-wise diagonal) the reference
//! is treated as column-wise when the row subscript moves, otherwise it has
//! no discernible preference and defaults to row (paper Sec. IV-B-a).

use crate::expr::VarId;
use crate::ir::ArrayRef;

/// Statically predicted access direction of a reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Walks along a row (unit stride in the fastest dimension).
    Row,
    /// Walks along a column (row subscript moves with the innermost index).
    Col,
    /// Loop-invariant with respect to the innermost loop.
    Invariant,
}

impl Direction {
    /// The orientation preference bit conveyed to the ISA: undiscerned or
    /// invariant references default to row preference.
    pub fn orientation(self) -> mda_mem::Orientation {
        match self {
            Direction::Col => mda_mem::Orientation::Col,
            Direction::Row | Direction::Invariant => mda_mem::Orientation::Row,
        }
    }
}

/// Result of analyzing one reference against the innermost loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefAnalysis {
    /// Predicted direction.
    pub direction: Direction,
    /// Whether consecutive innermost iterations touch adjacent elements
    /// along the direction (unit coefficient, other subscript invariant) —
    /// the precondition for vectorizing the reference.
    pub unit_stride: bool,
}

/// Analyzes `r` with respect to innermost loop variable `innermost`.
pub fn analyze_ref(r: &ArrayRef, innermost: VarId) -> RefAnalysis {
    let row_c = r.row.coeff_of(innermost);
    let col_c = r.col.coeff_of(innermost);
    match (row_c, col_c) {
        (0, 0) => RefAnalysis { direction: Direction::Invariant, unit_stride: false },
        (0, c) => RefAnalysis { direction: Direction::Row, unit_stride: c.abs() == 1 },
        (c, 0) => RefAnalysis { direction: Direction::Col, unit_stride: c.abs() == 1 },
        // Both subscripts move: a diagonal walk with no statically clear
        // preference. Classify it column-wise, like the paper's Z[i+j][i+2]
        // example, since the row subscript changes every iteration. It is
        // not unit-stride along either axis, so it cannot be vectorized.
        (_, _) => RefAnalysis { direction: Direction::Col, unit_stride: false },
    }
}

/// Analyzes every reference of a nest body.
pub fn analyze_nest(refs: &[ArrayRef], innermost: VarId) -> Vec<RefAnalysis> {
    refs.iter().map(|r| analyze_ref(r, innermost)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::AffineExpr;
    use crate::ir::ArrayId;

    fn r(row: AffineExpr, col: AffineExpr) -> ArrayRef {
        ArrayRef::read(ArrayId(0), row, col)
    }

    #[test]
    fn x_i_j_with_j_innermost_is_row_wise() {
        // X[i][j], innermost j = var 1 — the paper's canonical row access.
        let a = analyze_ref(&r(AffineExpr::var(0), AffineExpr::var(1)), 1);
        assert_eq!(a.direction, Direction::Row);
        assert!(a.unit_stride);
        assert_eq!(a.direction.orientation(), mda_mem::Orientation::Row);
    }

    #[test]
    fn y_j_i_with_j_innermost_is_column_wise() {
        // Y[j][i], innermost j — the paper's canonical column access.
        let a = analyze_ref(&r(AffineExpr::var(1), AffineExpr::var(0)), 1);
        assert_eq!(a.direction, Direction::Col);
        assert!(a.unit_stride);
        assert_eq!(a.direction.orientation(), mda_mem::Orientation::Col);
    }

    #[test]
    fn z_diagonal_is_column_wise_but_not_vectorizable() {
        // Z[i+j][i+2] with i innermost (paper Sec. V example).
        let i = 1;
        let row = AffineExpr::var(0).add(&AffineExpr::var(1));
        let col = AffineExpr::var(1).plus(2);
        let a = analyze_ref(&r(row, col), i);
        assert_eq!(a.direction, Direction::Col);
        assert!(!a.unit_stride);
    }

    #[test]
    fn invariant_reference_is_detected() {
        // C[i][j] inside a k-innermost loop (k = var 2).
        let a = analyze_ref(&r(AffineExpr::var(0), AffineExpr::var(1)), 2);
        assert_eq!(a.direction, Direction::Invariant);
        assert_eq!(a.direction.orientation(), mda_mem::Orientation::Row);
    }

    #[test]
    fn non_unit_coefficient_blocks_vectorization() {
        // X[i][2j]: row direction, stride 2 — not vectorizable.
        let a = analyze_ref(&r(AffineExpr::var(0), AffineExpr::scaled_var(1, 2)), 1);
        assert_eq!(a.direction, Direction::Row);
        assert!(!a.unit_stride);
    }

    #[test]
    fn analyze_nest_covers_all_refs() {
        let refs = vec![
            r(AffineExpr::var(0), AffineExpr::var(2)), // row-wise
            r(AffineExpr::var(2), AffineExpr::var(1)), // col-wise
            r(AffineExpr::var(0), AffineExpr::var(1)), // invariant
        ];
        let out = analyze_nest(&refs, 2);
        assert_eq!(
            out.iter().map(|a| a.direction).collect::<Vec<_>>(),
            vec![Direction::Row, Direction::Col, Direction::Invariant]
        );
    }
}

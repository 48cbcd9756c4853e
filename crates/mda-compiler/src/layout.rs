//! Memory-layout planning: conventional row-major vs. MDA-compliant tiled
//! layout with intra-array padding (paper Sec. V, "MDA-memory Compliant
//! Memory Layout").
//!
//! The MDA layout must guarantee that two elements in the same logical
//! column of an array (`X[i][j]` and `X[i+1][j]`) also land in the same
//! *physical* column of the MDA tiles. We achieve this with intra-array
//! padding of both dimensions to the 8-word tile granularity, and a
//! tile-major element order inside the padded rectangle: element `(i, j)`
//! lives at word `(i mod 8, j mod 8)` of tile `(i/8, j/8)` of the array's
//! tile grid. Row lines remain unit-stride in memory, so conventional row
//! vectorization works unchanged, and column lines are exactly the MDA
//! column transfer unit.
//!
//! The conventional layout (`Linear1D`) is plain row-major with each row
//! padded to a cache-line multiple — what the paper's "1-D optimized"
//! baseline uses.

use crate::ir::{ArrayId, Program};
use mda_mem::{WordAddr, LINE_WORDS, TILE_BYTES, TILE_LINES, WORD_BYTES};

/// Which layout family an array uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayoutKind {
    /// Row-major, rows padded to a cache line: optimized for logically 1-D
    /// hierarchies.
    Linear1D,
    /// Tile-major with intra-array padding to 8×8 tiles: optimized for
    /// logically 2-D (MDA) hierarchies.
    Tiled2D,
}

/// Placement of one array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayLayout {
    /// Base byte address (tile-aligned).
    pub base: u64,
    /// Rows after padding.
    pub padded_rows: u64,
    /// Columns after padding.
    pub padded_cols: u64,
    /// Layout family.
    pub kind: LayoutKind,
}

impl ArrayLayout {
    /// Bytes occupied by the padded array.
    pub fn size_bytes(&self) -> u64 {
        self.padded_rows * self.padded_cols * WORD_BYTES
    }

    /// The word address of element `(i, j)`.
    ///
    /// # Panics
    /// Panics in debug builds if `(i, j)` exceeds the padded extent.
    #[inline]
    pub fn addr(&self, i: u64, j: u64) -> WordAddr {
        debug_assert!(i < self.padded_rows && j < self.padded_cols, "index out of padded extent");
        match self.kind {
            LayoutKind::Linear1D => WordAddr(self.base + (i * self.padded_cols + j) * WORD_BYTES),
            LayoutKind::Tiled2D => {
                let tiles_per_row = self.padded_cols / TILE_LINES as u64;
                let tile = (i / TILE_LINES as u64) * tiles_per_row + j / TILE_LINES as u64;
                let within = (i % TILE_LINES as u64) * LINE_WORDS as u64 + (j % TILE_LINES as u64);
                WordAddr(self.base + tile * TILE_BYTES + within * WORD_BYTES)
            }
        }
    }
}

/// The placement of every array of a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    arrays: Vec<ArrayLayout>,
    total_bytes: u64,
}

impl Layout {
    /// Plans the layout of every array in `program` with layout family
    /// `kind`. Arrays are placed back to back, each base tile-aligned.
    pub fn plan(program: &Program, kind: LayoutKind) -> Layout {
        let mut arrays = Vec::with_capacity(program.arrays().len());
        let mut cursor = 0u64;
        for decl in program.arrays() {
            let (padded_rows, padded_cols) = match kind {
                LayoutKind::Linear1D => (decl.rows, round_up(decl.cols, LINE_WORDS as u64)),
                LayoutKind::Tiled2D => {
                    (round_up(decl.rows, TILE_LINES as u64), round_up(decl.cols, TILE_LINES as u64))
                }
            };
            let a = ArrayLayout { base: cursor, padded_rows, padded_cols, kind };
            cursor = round_up(cursor + a.size_bytes(), TILE_BYTES);
            arrays.push(a);
        }
        Layout { arrays, total_bytes: cursor }
    }

    /// The placement of array `id`.
    pub fn of(&self, id: ArrayId) -> &ArrayLayout {
        &self.arrays[id.0]
    }

    /// Total padded footprint in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }
}

fn round_up(v: u64, to: u64) -> u64 {
    v.div_ceil(to) * to
}

#[cfg(test)]
mod tests {
    use super::*;
    use mda_mem::Orientation;

    fn program(rows: u64, cols: u64) -> (Program, ArrayId) {
        let mut p = Program::new("t");
        let a = p.array("A", rows, cols);
        (p, a)
    }

    #[test]
    fn linear_layout_is_row_major_with_line_padding() {
        let (p, a) = program(4, 10);
        let l = Layout::plan(&p, LayoutKind::Linear1D);
        let al = l.of(a);
        assert_eq!(al.padded_cols, 16, "10 columns pad to two cache lines");
        assert_eq!(al.addr(0, 1).0 - al.addr(0, 0).0, 8, "unit stride along rows");
        assert_eq!(al.addr(1, 0).0 - al.addr(0, 0).0, 16 * 8, "row pitch");
    }

    #[test]
    fn tiled_layout_keeps_columns_in_one_physical_column() {
        let (p, a) = program(32, 32);
        let l = Layout::plan(&p, LayoutKind::Tiled2D);
        let al = l.of(a);
        // X[i][j] and X[i+1][j] must share the MDA column: same tile column
        // coordinate, and the same tile while within an 8-row band.
        for i in 0..7u64 {
            let w0 = al.addr(i, 5);
            let w1 = al.addr(i + 1, 5);
            assert_eq!(w0.tile(), w1.tile());
            assert_eq!(w0.col_in_tile(), w1.col_in_tile());
            assert_eq!(w1.row_in_tile(), w0.row_in_tile() + 1);
        }
    }

    #[test]
    fn tiled_layout_keeps_rows_unit_stride_within_a_line() {
        let (p, a) = program(16, 16);
        let l = Layout::plan(&p, LayoutKind::Tiled2D);
        let al = l.of(a);
        for j in 0..7u64 {
            assert_eq!(al.addr(3, j + 1).0, al.addr(3, j).0 + 8);
        }
        // A full aligned row chunk is exactly one row line.
        let line = mda_mem::LineKey::containing(al.addr(3, 0), Orientation::Row);
        assert_eq!(line.offset_of(al.addr(3, 0)), Some(0));
        assert_eq!(line.offset_of(al.addr(3, 7)), Some(7));
    }

    #[test]
    fn tiled_column_chunk_is_exactly_one_column_line() {
        let (p, a) = program(16, 16);
        let l = Layout::plan(&p, LayoutKind::Tiled2D);
        let al = l.of(a);
        let line = mda_mem::LineKey::containing(al.addr(8, 5), Orientation::Col);
        for i in 8..16u64 {
            assert!(line.contains(al.addr(i, 5)));
        }
        assert_eq!(line.offset_of(al.addr(8, 5)), Some(0));
    }

    #[test]
    fn intra_array_padding_rounds_dimensions() {
        let (p, a) = program(9, 17);
        let l = Layout::plan(&p, LayoutKind::Tiled2D);
        assert_eq!(l.of(a).padded_rows, 16);
        assert_eq!(l.of(a).padded_cols, 24);
        assert_eq!(l.of(a).size_bytes(), 16 * 24 * 8);
    }

    #[test]
    fn arrays_do_not_overlap_and_bases_are_tile_aligned() {
        let mut p = Program::new("t");
        let a = p.array("A", 9, 9);
        let b = p.array("B", 9, 9);
        let l = Layout::plan(&p, LayoutKind::Tiled2D);
        let (la, lb) = (l.of(a), l.of(b));
        assert!(la.base + la.size_bytes() <= lb.base);
        assert_eq!(lb.base % TILE_BYTES, 0);
        assert!(l.total_bytes() >= lb.base + lb.size_bytes());
    }

    #[test]
    fn distinct_elements_have_distinct_addresses() {
        let (p, a) = program(24, 24);
        for kind in [LayoutKind::Linear1D, LayoutKind::Tiled2D] {
            let l = Layout::plan(&p, kind);
            let al = l.of(a);
            let mut seen = std::collections::HashSet::new();
            for i in 0..24 {
                for j in 0..24 {
                    assert!(seen.insert(al.addr(i, j).0), "duplicate address in {kind:?}");
                }
            }
        }
    }
}

//! Abstract model of the 2P2L (physically 2-D) cache over one block.
//!
//! A 2P2L block physically holds the whole tile, so a word has exactly one
//! cached copy and the duplicate-word policy degenerates: coherence reduces
//! to (a) fills must not clobber modified words with stale memory data and
//! (b) dirty lines (per-line dirty bits, paper Sec. IV-C) must reach memory
//! on eviction. The model tracks per-word value freshness the same way as
//! [`crate::model::Model1P2L`] and mirrors `Cache2P2L`'s metadata exactly:
//! per-line valid and dirty bits, line-granular writebacks, sparse or dense
//! fill.
//!
//! One modelling note surfaced by writing this down: the simulator's
//! metadata-only writeback-allocate path (`fill` of a partial-mask
//! writeback into an absent block) marks the whole line valid without
//! fetching its remaining words. The model adopts the charitable reading —
//! the unfetched words take memory's value — which is coherent at a single
//! level because an absent block implies no dirtier copy below the sender.

use crate::model::{Mutation, Violation, MAX_DIM, MODEL_TILE};
use mda_cache::Writeback;
use mda_mem::{LineKey, Orientation, WordAddr};

/// Abstract 2P2L block + memory state over one `dim × dim` tile.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Model2P2L {
    dim: u8,
    sparse: bool,
    mutation: Mutation,
    /// Whether the block frame is allocated at all.
    block: bool,
    /// Per-line valid bits, `[orient]`.
    valid: [u8; 2],
    /// Per-line dirty bits, `[orient]` (line granular, as in the real
    /// cache).
    dirty: [u8; 2],
    /// Per-word freshness of the single physical copy: `word_fresh[r]` bit
    /// `c`. Meaningful only for covered words.
    word_fresh: [u8; MAX_DIM],
    /// Memory freshness, same layout.
    mem_fresh: [u8; MAX_DIM],
}

impl Model2P2L {
    /// An empty cache over a `dim × dim` tile, memory fresh everywhere.
    pub fn new(dim: u8, sparse: bool, mutation: Mutation) -> Model2P2L {
        assert!(dim >= 1 && dim as usize <= MAX_DIM, "dim must be in 1..=8");
        let full = Self::full_mask_for(dim);
        Model2P2L {
            dim,
            sparse,
            mutation,
            block: false,
            valid: [0; 2],
            dirty: [0; 2],
            word_fresh: [0; MAX_DIM],
            mem_fresh: [full; MAX_DIM],
        }
    }

    fn full_mask_for(dim: u8) -> u8 {
        if dim as usize >= 8 {
            0xFF
        } else {
            (1u8 << dim) - 1
        }
    }

    /// The tile dimension.
    pub fn dim(&self) -> u8 {
        self.dim
    }

    /// The word mask covering a whole model line.
    pub fn full_mask(&self) -> u8 {
        Self::full_mask_for(self.dim)
    }

    /// Whether the sparse fill policy is active.
    pub fn is_sparse(&self) -> bool {
        self.sparse
    }

    fn line_valid(&self, orient: Orientation, idx: u8) -> bool {
        self.valid[orient as usize] & (1 << idx) != 0
    }

    /// Whether `line` is resident (valid within an allocated block).
    pub fn present(&self, line: &LineKey) -> bool {
        self.block && self.line_valid(line.orient, line.idx)
    }

    /// Whether the resident `line` carries its (line-granular) dirty bit.
    pub fn line_dirty(&self, line: &LineKey) -> bool {
        self.present(line) && self.dirty[line.orient as usize] & (1 << line.idx) != 0
    }

    fn covered(&self, r: u8, c: u8) -> bool {
        self.block && (self.valid[0] & (1 << r) != 0 || self.valid[1] & (1 << c) != 0)
    }

    fn word_is_fresh(&self, r: u8, c: u8) -> bool {
        self.word_fresh[r as usize] & (1 << c) != 0
    }

    fn set_word_fresh(&mut self, r: u8, c: u8, fresh: bool) {
        if fresh {
            self.word_fresh[r as usize] |= 1 << c;
        } else {
            self.word_fresh[r as usize] &= !(1 << c);
        }
    }

    fn mem_is_fresh(&self, r: u8, c: u8) -> bool {
        self.mem_fresh[r as usize] & (1 << c) != 0
    }

    fn set_mem_fresh(&mut self, r: u8, c: u8, fresh: bool) {
        if fresh {
            self.mem_fresh[r as usize] |= 1 << c;
        } else {
            self.mem_fresh[r as usize] &= !(1 << c);
        }
    }

    /// Writes one word: the block copy becomes fresh, memory stale, and the
    /// covering line chosen by `Cache2P2L::mark_dirty`'s precedence (the
    /// access orientation if its line is valid, else the covering row, else
    /// the covering column) gets its dirty bit.
    fn mark_dirty(&mut self, word: WordAddr, orient: Orientation) {
        let (r, c) = (word.row_in_tile(), word.col_in_tile());
        let along = match orient {
            Orientation::Row => r,
            Orientation::Col => c,
        };
        let via = if self.line_valid(orient, along) {
            orient
        } else if self.valid[0] & (1 << r) != 0 {
            Orientation::Row
        } else {
            Orientation::Col
        };
        match via {
            Orientation::Row => self.dirty[0] |= 1 << r,
            Orientation::Col => self.dirty[1] |= 1 << c,
        }
        self.set_word_fresh(r, c, true);
        self.set_mem_fresh(r, c, false);
    }

    /// Scalar read of `word` with preference `orient`. Returns
    /// `(hit, fresh)` like [`crate::model::Model1P2L::scalar_read`].
    pub fn scalar_read(&self, word: WordAddr, _orient: Orientation) -> (bool, bool) {
        let (r, c) = (word.row_in_tile(), word.col_in_tile());
        if !self.covered(r, c) {
            return (false, true);
        }
        (true, self.word_is_fresh(r, c))
    }

    /// Scalar write of `word`. Returns whether it hits (any covering line
    /// serves a scalar, aligned or not).
    pub fn scalar_write(&mut self, word: WordAddr, orient: Orientation) -> bool {
        let (r, c) = (word.row_in_tile(), word.col_in_tile());
        if !self.covered(r, c) {
            return false;
        }
        self.mark_dirty(word, orient);
        true
    }

    /// Vector read of `line`: hits on the aligned line, or as a partial hit
    /// when every intersecting line of the other orientation is valid.
    /// Returns `(hit, all_words_fresh)`.
    pub fn vector_read(&self, line: &LineKey) -> (bool, bool) {
        if !self.hit_vector(line) {
            return (false, true);
        }
        let mut fresh = true;
        for off in 0..self.dim {
            let w = line.word_at(off);
            fresh &= self.word_is_fresh(w.row_in_tile(), w.col_in_tile());
        }
        (true, fresh)
    }

    fn hit_vector(&self, line: &LineKey) -> bool {
        if !self.block {
            return false;
        }
        if self.line_valid(line.orient, line.idx) {
            return true;
        }
        // Partial hit: full coverage by the other orientation.
        self.valid[line.orient.other() as usize] == self.full_mask()
    }

    /// Vector write of `line`. Returns whether it hits.
    pub fn vector_write(&mut self, line: &LineKey) -> bool {
        if !self.hit_vector(line) {
            return false;
        }
        for off in 0..self.dim {
            self.mark_dirty(line.word_at(off), line.orient);
        }
        true
    }

    /// Installs `line` with `dirty` words pre-modified, mirroring
    /// `Cache2P2L::fill`: the block is allocated on first touch, the line's
    /// valid bit is set, and any nonzero mask dirties the whole line (the
    /// real cache tracks dirtiness per line). Words not previously covered
    /// take memory's value; masked words take the new written value.
    pub fn fill(&mut self, line: LineKey, dirty: u8, _out: &mut Vec<Writeback>) {
        self.block = true;
        // Value install happens before the valid bit flips so "previously
        // covered" reflects the pre-fill state.
        for off in 0..self.dim {
            let w = line.word_at(off);
            let (r, c) = (w.row_in_tile(), w.col_in_tile());
            if !self.covered(r, c) {
                let fresh = self.mem_is_fresh(r, c);
                self.set_word_fresh(r, c, fresh);
            }
        }
        self.valid[line.orient as usize] |= 1 << line.idx;
        if dirty != 0 {
            self.dirty[line.orient as usize] |= 1 << line.idx;
            for off in 0..self.dim {
                if dirty & (1 << off) != 0 {
                    let w = line.word_at(off);
                    self.set_word_fresh(w.row_in_tile(), w.col_in_tile(), true);
                    self.set_mem_fresh(w.row_in_tile(), w.col_in_tile(), false);
                }
            }
        }
    }

    /// Absorbs a writeback from above: succeeds only when the block is
    /// already allocated (mirroring `Cache2P2L::absorb_writeback`); the
    /// carried words are newer than anything held here.
    pub fn absorb_writeback(&mut self, wb: &Writeback) -> bool {
        if !self.block {
            return false;
        }
        for off in 0..self.dim {
            let w = wb.line.word_at(off);
            let (r, c) = (w.row_in_tile(), w.col_in_tile());
            if !self.covered(r, c) {
                let fresh = self.mem_is_fresh(r, c);
                self.set_word_fresh(r, c, fresh);
            }
        }
        self.valid[wb.line.orient as usize] |= 1 << wb.line.idx;
        self.dirty[wb.line.orient as usize] |= 1 << wb.line.idx;
        for off in 0..self.dim {
            if wb.dirty & (1 << off) != 0 {
                let w = wb.line.word_at(off);
                self.set_word_fresh(w.row_in_tile(), w.col_in_tile(), true);
                self.set_mem_fresh(w.row_in_tile(), w.col_in_tile(), false);
            }
        }
        true
    }

    /// Evicts the block: every dirty line is written back whole (the real
    /// cache emits `dirty: 0xFF` per dirty line), clean lines are elided.
    pub fn evict_block(&mut self, out: &mut Vec<Writeback>) {
        if !self.block {
            return;
        }
        let full = self.full_mask();
        for orient in Orientation::BOTH {
            for idx in 0..self.dim {
                if self.dirty[orient as usize] & (1 << idx) == 0 {
                    continue;
                }
                let line = LineKey::new(MODEL_TILE, orient, idx);
                let mut sent = full;
                if let Mutation::DropWritebackWord { offset } = self.mutation {
                    sent &= !(1 << offset);
                }
                for off in 0..self.dim {
                    if sent & (1 << off) == 0 {
                        continue;
                    }
                    let w = line.word_at(off);
                    let fresh = self.word_is_fresh(w.row_in_tile(), w.col_in_tile());
                    self.set_mem_fresh(w.row_in_tile(), w.col_in_tile(), fresh);
                }
                if sent != 0 {
                    out.push(Writeback { line, dirty: sent });
                }
            }
        }
        self.block = false;
        self.valid = [0; 2];
        self.dirty = [0; 2];
        self.word_fresh = [0; MAX_DIM];
    }

    /// Flushes the cache (identical to evicting the single block).
    pub fn flush(&mut self, out: &mut Vec<Writeback>) {
        self.evict_block(out);
    }

    /// Per-state invariants: covered words fresh, dirty lines valid, and
    /// flush convergence.
    pub fn check_invariants(&self) -> Result<(), Violation> {
        for orient in Orientation::BOTH {
            let bad = self.dirty[orient as usize] & !self.valid[orient as usize];
            if bad != 0 {
                return Err(Violation::DirtyInvalidLine {
                    line: LineKey::new(MODEL_TILE, orient, bad.trailing_zeros() as u8),
                });
            }
        }
        for r in 0..self.dim {
            for c in 0..self.dim {
                if self.covered(r, c) && !self.word_is_fresh(r, c) {
                    return Err(Violation::StaleCopy {
                        word: WordAddr::from_tile_coords(MODEL_TILE, r, c),
                        orient: Orientation::Row,
                    });
                }
            }
        }
        let mut drained = self.clone();
        let mut sink = Vec::new();
        drained.flush(&mut sink);
        for r in 0..self.dim {
            for c in 0..self.dim {
                if !drained.mem_is_fresh(r, c) {
                    return Err(Violation::FlushDiverged {
                        word: WordAddr::from_tile_coords(MODEL_TILE, r, c),
                    });
                }
            }
        }
        Ok(())
    }

    /// Canonical state encoding for the explorer's visited set.
    pub fn encode(&self) -> u128 {
        let mut code: u128 = u128::from(self.block);
        let mut push = |bits: u8, width: u32| {
            code = (code << width) | u128::from(bits);
        };
        let dim = u32::from(self.dim);
        push(self.valid[0], 8);
        push(self.valid[1], 8);
        push(self.dirty[0], 8);
        push(self.dirty[1], 8);
        for r in 0..self.dim {
            // Only covered words carry a meaningful value bit.
            let mut mask = 0u8;
            for c in 0..self.dim {
                if self.covered(r, c) && self.word_is_fresh(r, c) {
                    mask |= 1 << c;
                }
            }
            push(mask, dim);
        }
        for r in 0..self.dim as usize {
            push(self.mem_fresh[r], dim);
        }
        code
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(o: Orientation, idx: u8) -> LineKey {
        LineKey::new(MODEL_TILE, o, idx)
    }

    #[test]
    fn crossing_lines_share_one_physical_word() {
        let mut m = Model2P2L::new(2, true, Mutation::None);
        let mut out = Vec::new();
        m.fill(line(Orientation::Row, 0), 0, &mut out);
        m.fill(line(Orientation::Col, 1), 0, &mut out);
        let shared = WordAddr::from_tile_coords(0, 0, 1);
        assert!(m.scalar_write(shared, Orientation::Row));
        // Reading through the column still sees the new value: one copy.
        let (hit, fresh) = m.scalar_read(shared, Orientation::Col);
        assert!(hit && fresh);
        assert!(m.check_invariants().is_ok());
    }

    #[test]
    fn fill_does_not_clobber_modified_words() {
        let mut m = Model2P2L::new(2, true, Mutation::None);
        let mut out = Vec::new();
        m.fill(line(Orientation::Row, 0), 0, &mut out);
        let w = WordAddr::from_tile_coords(0, 0, 1);
        assert!(m.scalar_write(w, Orientation::Row));
        // Fill the crossing column: word (0,1) is already covered and
        // modified; the fill must keep the block's fresh value.
        m.fill(line(Orientation::Col, 1), 0, &mut out);
        let (hit, fresh) = m.scalar_read(w, Orientation::Col);
        assert!(hit && fresh);
        assert!(m.check_invariants().is_ok());
    }

    #[test]
    fn dropped_writeback_word_detected() {
        let mut m = Model2P2L::new(2, true, Mutation::DropWritebackWord { offset: 0 });
        let mut out = Vec::new();
        m.fill(line(Orientation::Row, 0), 0, &mut out);
        assert!(m.scalar_write(WordAddr::from_tile_coords(0, 0, 0), Orientation::Row));
        assert!(matches!(m.check_invariants(), Err(Violation::FlushDiverged { .. })));
    }

    #[test]
    fn partial_vector_hit_requires_full_coverage() {
        let mut m = Model2P2L::new(2, true, Mutation::None);
        let mut out = Vec::new();
        m.fill(line(Orientation::Row, 0), 0, &mut out);
        assert!(!m.vector_read(&line(Orientation::Col, 0)).0);
        m.fill(line(Orientation::Row, 1), 0, &mut out);
        assert!(m.vector_read(&line(Orientation::Col, 0)).0, "2/2 rows cover any column");
    }
}

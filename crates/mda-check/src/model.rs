//! Abstract model of the 1P2L duplicate-word coherence policy (paper
//! Fig. 9), with explicit value tracking.
//!
//! The model is an independent re-implementation of the policy from the
//! paper's specification, deliberately *not* sharing code with
//! [`mda_cache::Cache1P2L`]: the checker's differential mode cross-checks
//! the two, and the BFS explorer enumerates this model's reachable states
//! to prove the policy's invariants exhaustively on small tiles.
//!
//! ## State
//!
//! One tile of `dim × dim` words (`dim ≤ 8`), an unbounded cache (no
//! replacement — evictions are explicit transitions so the explorer covers
//! *every* replacement behavior, subsuming both Different-Set and Same-Set
//! mappings), and memory. Per orientation and line index the model keeps a
//! presence bit, a per-word dirty mask, and a per-word **fresh** mask;
//! memory keeps a per-word fresh mask.
//!
//! "Fresh" abstracts data values: a copy is fresh iff it equals the
//! program-order value of the word (the value of the last write). A write
//! makes the written copy fresh and every other holder — the other
//! orientation's copy and memory — stale. This finite abstraction is exact
//! for the three checked invariants: a read returns stale data iff it is
//! served by a non-fresh copy, and flush converges iff it leaves memory
//! fresh everywhere.

use mda_cache::Writeback;
use mda_mem::{LineKey, Orientation, TileId, WordAddr};

/// Largest supported tile dimension (the real geometry).
pub const MAX_DIM: usize = 8;

/// The tile all model lines and words live in.
pub const MODEL_TILE: TileId = 0;

/// A seeded model bug, used by the mutation tests to prove the checker
/// actually detects broken coherence (and not vacuously "no violations").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Mutation {
    /// Faithful policy.
    #[default]
    None,
    /// Writebacks silently drop the word at this line offset: its dirty bit
    /// is cleared but memory is never updated. Caught by the
    /// flush-convergence invariant (and by the differential mode's
    /// writeback comparison).
    DropWritebackWord {
        /// Line offset of the dropped word.
        offset: u8,
    },
    /// Writes skip evicting the other-orientation copy of the written word,
    /// leaving a stale duplicate behind. Caught by the stale-copy
    /// invariant.
    SkipDuplicateEviction,
}

/// An invariant violation found in a model state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Violation {
    /// A resident copy of `word` no longer matches program order: a read
    /// served by it would return stale data.
    StaleCopy {
        /// The affected word.
        word: WordAddr,
        /// The orientation of the stale copy.
        orient: Orientation,
    },
    /// More than one dirty copy of `word` exists across orientations.
    DoubleDirty {
        /// The affected word.
        word: WordAddr,
    },
    /// A dirty word is duplicated: the policy requires modification to
    /// happen to a sole copy.
    DirtyNotSole {
        /// The affected word.
        word: WordAddr,
    },
    /// After a full flush, memory still disagrees with program order.
    FlushDiverged {
        /// The word whose memory copy is stale after flush.
        word: WordAddr,
    },
    /// A line carries a dirty bit without being valid (2P2L structural
    /// invariant).
    DirtyInvalidLine {
        /// The offending line.
        line: LineKey,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::StaleCopy { word, orient } => {
                write!(f, "stale {orient} copy of word {word}: a read would return old data")
            }
            Violation::DoubleDirty { word } => {
                write!(f, "two dirty copies of word {word}")
            }
            Violation::DirtyNotSole { word } => {
                write!(f, "dirty word {word} is duplicated (modification must be sole-copy)")
            }
            Violation::FlushDiverged { word } => {
                write!(f, "flush left memory stale at word {word}")
            }
            Violation::DirtyInvalidLine { line } => {
                write!(f, "line {line} is dirty but not valid")
            }
        }
    }
}

/// Abstract 1P2L cache + memory state over one `dim × dim` tile.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Model1P2L {
    dim: u8,
    mutation: Mutation,
    /// Presence bitmask over line indices, per orientation.
    present: [u8; 2],
    /// Per-line dirty word mask, `[orient][idx]`, offsets `0..dim`.
    dirty: [[u8; MAX_DIM]; 2],
    /// Per-line fresh word mask (meaningful only while present).
    fresh: [[u8; MAX_DIM]; 2],
    /// Memory freshness: `mem_fresh[r]` bit `c` covers word `(r, c)`.
    mem_fresh: [u8; MAX_DIM],
}

impl Model1P2L {
    /// An empty cache over a `dim × dim` tile with memory fresh everywhere.
    pub fn new(dim: u8, mutation: Mutation) -> Model1P2L {
        assert!(dim >= 1 && dim as usize <= MAX_DIM, "dim must be in 1..=8");
        let full = Self::full_mask_for(dim);
        Model1P2L {
            dim,
            mutation,
            present: [0; 2],
            dirty: [[0; MAX_DIM]; 2],
            fresh: [[0; MAX_DIM]; 2],
            mem_fresh: [full; MAX_DIM],
        }
    }

    fn full_mask_for(dim: u8) -> u8 {
        if dim as usize >= 8 { 0xFF } else { (1u8 << dim) - 1 }
    }

    /// The tile dimension.
    pub fn dim(&self) -> u8 {
        self.dim
    }

    /// The word mask covering a whole model line.
    pub fn full_mask(&self) -> u8 {
        Self::full_mask_for(self.dim)
    }

    /// All `dim × dim` line keys of the model tile.
    fn all_lines(&self) -> impl Iterator<Item = LineKey> + '_ {
        let dim = self.dim;
        Orientation::BOTH
            .into_iter()
            .flat_map(move |o| (0..dim).map(move |i| LineKey::new(MODEL_TILE, o, i)))
    }

    /// Tile-local `(r, c)` coordinates of the word at `off` on `line`.
    fn coords(line: &LineKey, off: u8) -> (u8, u8) {
        match line.orient {
            Orientation::Row => (line.idx, off),
            Orientation::Col => (off, line.idx),
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

    /// Whether `line` is resident.
    pub fn present(&self, line: &LineKey) -> bool {
        self.present[line.orient as usize] & (1 << line.idx) != 0
    }

    /// The resident line's dirty word mask (0 when absent).
    pub fn dirty_mask(&self, line: &LineKey) -> u8 {
        if self.present(line) { self.dirty[line.orient as usize][line.idx as usize] } else { 0 }
    }

    fn fresh_mask(&self, line: &LineKey) -> u8 {
        self.fresh[line.orient as usize][line.idx as usize]
    }

    /// Writes the line's `mask` words to memory (value propagation), minus
    /// any word the seeded mutation drops, and appends the transfer to
    /// `out`.
    fn emit_writeback(&mut self, line: LineKey, mask: u8, out: &mut Vec<Writeback>) {
        let mut sent = mask;
        if let Mutation::DropWritebackWord { offset } = self.mutation {
            sent &= !(1 << offset);
        }
        for off in 0..self.dim {
            if sent & (1 << off) == 0 {
                continue;
            }
            let (r, c) = Self::coords(&line, off);
            let copy_fresh = self.fresh_mask(&line) & (1 << off) != 0;
            self.set_mem_fresh(r, c, copy_fresh);
        }
        if sent != 0 {
            out.push(Writeback { line, dirty: sent });
        }
    }

    /// Removes `line`, writing back its dirty words first (Fig. 9:
    /// Modified → Invalid emits a writeback).
    pub fn evict_line(&mut self, line: LineKey, out: &mut Vec<Writeback>) {
        if !self.present(&line) {
            return;
        }
        let mask = self.dirty[line.orient as usize][line.idx as usize];
        if mask != 0 {
            self.emit_writeback(line, mask, out);
        }
        self.present[line.orient as usize] &= !(1 << line.idx);
        self.dirty[line.orient as usize][line.idx as usize] = 0;
        self.fresh[line.orient as usize][line.idx as usize] = 0;
    }

    /// Cleans `line` in place (Fig. 9: Modified → Clean on
    /// read-to-duplicate), writing back its dirty words.
    fn clean_line(&mut self, line: LineKey, out: &mut Vec<Writeback>) {
        if !self.present(&line) {
            return;
        }
        let mask = self.dirty[line.orient as usize][line.idx as usize];
        if mask != 0 {
            self.emit_writeback(line, mask, out);
            self.dirty[line.orient as usize][line.idx as usize] = 0;
        }
    }

    /// Resolves duplication before `line` holds `dirty_mask` pre-modified
    /// words: intersecting other-orientation copies of the dirty words are
    /// evicted (write-to-duplicate), and dirty intersecting copies of clean
    /// words are cleaned (read-to-duplicate) — mirroring
    /// `Cache1P2L::resolve_intersections`.
    fn resolve_intersections(&mut self, line: &LineKey, dirty_mask: u8, out: &mut Vec<Writeback>) {
        for off in 0..self.dim {
            let word = line.word_at(off);
            let other = line.intersecting_at(word);
            if !self.present(&other) {
                continue;
            }
            if dirty_mask & (1 << off) != 0 {
                self.evict_line(other, out);
            } else {
                let other_off = match other.offset_of(word) {
                    Some(o) => o,
                    None => continue,
                };
                if self.dirty_mask(&other) & (1 << other_off) != 0 {
                    self.clean_line(other, out);
                }
            }
        }
    }

    /// Marks the `mask` words of `line` as newly written: the copy becomes
    /// fresh and dirty, every other holder of the word (memory and the
    /// other-orientation copy, if one survives) becomes stale.
    fn write_words(&mut self, line: &LineKey, mask: u8) {
        for off in 0..self.dim {
            if mask & (1 << off) == 0 {
                continue;
            }
            let (r, c) = Self::coords(line, off);
            self.fresh[line.orient as usize][line.idx as usize] |= 1 << off;
            self.set_mem_fresh(r, c, false);
            let word = line.word_at(off);
            let other = line.intersecting_at(word);
            if self.present(&other) {
                if let Some(other_off) = other.offset_of(word) {
                    self.fresh[other.orient as usize][other.idx as usize] &= !(1 << other_off);
                }
            }
        }
        self.dirty[line.orient as usize][line.idx as usize] |= mask;
    }

    /// Applies a write to the resident `line`: other copies of the written
    /// words are evicted first (their old value written back if dirty),
    /// then the words are modified — mirroring `Cache1P2L::write_resident`.
    fn write_resident(&mut self, line: LineKey, mask: u8, out: &mut Vec<Writeback>) {
        if self.mutation != Mutation::SkipDuplicateEviction {
            for off in 0..self.dim {
                if mask & (1 << off) == 0 {
                    continue;
                }
                let other = line.intersecting_at(line.word_at(off));
                if self.present(&other) {
                    self.evict_line(other, out);
                }
            }
        }
        self.write_words(&line, mask);
    }

    /// Scalar read of `word` with preference `orient`. Returns whether it
    /// hits and, on a hit, whether the copy that serves it is fresh (the
    /// caller turns a stale service into a [`Violation::StaleCopy`]).
    pub fn scalar_read(&self, word: WordAddr, orient: Orientation) -> (bool, bool) {
        let preferred = LineKey::containing(word, orient);
        let serving = if self.present(&preferred) {
            Some(preferred)
        } else {
            let other = LineKey::containing(word, orient.other());
            if self.present(&other) { Some(other) } else { None }
        };
        match serving {
            None => (false, true),
            Some(line) => {
                let off = line.offset_of(word).unwrap_or(0);
                (true, self.fresh_mask(&line) & (1 << off) != 0)
            }
        }
    }

    /// Scalar write of `word` with preference `orient`. Returns whether it
    /// hits (a miss is write-allocated by the caller via [`Self::fill`]).
    pub fn scalar_write(
        &mut self,
        word: WordAddr,
        orient: Orientation,
        out: &mut Vec<Writeback>,
    ) -> bool {
        let preferred = LineKey::containing(word, orient);
        if self.present(&preferred) {
            let off = preferred.offset_of(word).unwrap_or(0);
            self.write_resident(preferred, 1 << off, out);
            return true;
        }
        let other = LineKey::containing(word, orient.other());
        if self.present(&other) {
            let off = other.offset_of(word).unwrap_or(0);
            self.write_resident(other, 1 << off, out);
            return true;
        }
        false
    }

    /// Vector read of `line`: hits only on the exactly aligned line.
    pub fn vector_read(&self, line: &LineKey) -> bool {
        self.present(line)
    }

    /// Vector write of `line`. Returns whether it hits.
    pub fn vector_write(&mut self, line: LineKey, out: &mut Vec<Writeback>) -> bool {
        if self.present(&line) {
            self.write_resident(line, self.full_mask(), out);
            return true;
        }
        false
    }

    /// Installs `line` with `dirty` words pre-modified (demand fill or
    /// write-allocate), resolving duplication first — mirroring
    /// `Cache1P2L::fill`. Clean words take their value from memory.
    pub fn fill(&mut self, line: LineKey, dirty: u8, out: &mut Vec<Writeback>) {
        if self.present(&line) {
            // Already resident (coalesced fill): merge.
            self.resolve_intersections(&line, dirty, out);
            if dirty != 0 {
                self.write_words(&line, dirty);
            }
            return;
        }
        self.resolve_intersections(&line, dirty, out);
        self.present[line.orient as usize] |= 1 << line.idx;
        self.dirty[line.orient as usize][line.idx as usize] = 0;
        let mut fresh = 0u8;
        for off in 0..self.dim {
            if dirty & (1 << off) != 0 {
                continue;
            }
            let (r, c) = Self::coords(&line, off);
            if self.mem_is_fresh(r, c) {
                fresh |= 1 << off;
            }
        }
        self.fresh[line.orient as usize][line.idx as usize] = fresh;
        if dirty != 0 {
            self.write_words(&line, dirty);
        }
    }

    /// Absorbs a writeback from an upper level: the carried words are newer
    /// than anything held here. Returns `false` when the line is absent and
    /// the caller must [`Self::fill`] it instead (write-allocate).
    pub fn absorb_writeback(&mut self, wb: &Writeback, out: &mut Vec<Writeback>) -> bool {
        if !self.present(&wb.line) {
            return false;
        }
        self.write_resident(wb.line, wb.dirty, out);
        true
    }

    /// Evicts every line, writing dirty data back (replacement and
    /// end-of-phase flush both reduce to this).
    pub fn flush(&mut self, out: &mut Vec<Writeback>) {
        for line in self.all_lines().collect::<Vec<_>>() {
            self.evict_line(line, out);
        }
    }

    /// Checks the per-state invariants: every resident copy fresh (no read
    /// can return stale data), at most one dirty copy per word, dirty words
    /// sole-copy, and flush convergence (a flush from this state leaves
    /// memory agreeing with program order everywhere).
    pub fn check_invariants(&self) -> Result<(), Violation> {
        for r in 0..self.dim {
            for c in 0..self.dim {
                let word = WordAddr::from_tile_coords(MODEL_TILE, r, c);
                let mut dirty_copies = 0u8;
                let mut copies = 0u8;
                for orient in Orientation::BOTH {
                    let line = LineKey::containing(word, orient);
                    if !self.present(&line) {
                        continue;
                    }
                    copies += 1;
                    let off = match line.offset_of(word) {
                        Some(o) => o,
                        None => continue,
                    };
                    if self.fresh_mask(&line) & (1 << off) == 0 {
                        return Err(Violation::StaleCopy { word, orient });
                    }
                    if self.dirty_mask(&line) & (1 << off) != 0 {
                        dirty_copies += 1;
                    }
                }
                if dirty_copies > 1 {
                    return Err(Violation::DoubleDirty { word });
                }
                if dirty_copies == 1 && copies > 1 {
                    return Err(Violation::DirtyNotSole { word });
                }
            }
        }
        // Flush convergence: drain a scratch copy and require memory fresh.
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

    /// A compact canonical encoding of the state for the explorer's visited
    /// set. Absent lines contribute zero bits, so equivalent states encode
    /// identically.
    pub fn encode(&self) -> u128 {
        let mut code: u128 = 0;
        let mut push = |bits: u8, width: u32| {
            code = (code << width) | u128::from(bits);
        };
        let dim = u32::from(self.dim);
        push(self.present[0], 8);
        push(self.present[1], 8);
        for o in 0..2 {
            for i in 0..self.dim as usize {
                let present = self.present[o] & (1 << i) != 0;
                push(if present { self.dirty[o][i] } else { 0 }, dim);
                push(if present { self.fresh[o][i] } else { 0 }, dim);
            }
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
    fn clean_duplication_keeps_everything_fresh() {
        let mut m = Model1P2L::new(2, Mutation::None);
        let mut out = Vec::new();
        m.fill(line(Orientation::Row, 0), 0, &mut out);
        m.fill(line(Orientation::Col, 1), 0, &mut out);
        assert!(out.is_empty());
        assert!(m.check_invariants().is_ok());
        let (hit, fresh) = m.scalar_read(WordAddr::from_tile_coords(0, 0, 1), Orientation::Col);
        assert!(hit && fresh);
    }

    #[test]
    fn write_evicts_duplicate_and_flush_converges() {
        let mut m = Model1P2L::new(2, Mutation::None);
        let mut out = Vec::new();
        m.fill(line(Orientation::Row, 0), 0, &mut out);
        m.fill(line(Orientation::Col, 1), 0, &mut out);
        let w = WordAddr::from_tile_coords(0, 0, 1);
        assert!(m.scalar_write(w, Orientation::Row, &mut out));
        assert!(!m.present(&line(Orientation::Col, 1)), "duplicate evicted");
        assert!(m.check_invariants().is_ok());
    }

    #[test]
    fn dropped_writeback_word_breaks_flush_convergence() {
        let mut m = Model1P2L::new(2, Mutation::DropWritebackWord { offset: 0 });
        let mut out = Vec::new();
        m.fill(line(Orientation::Row, 0), 0, &mut out);
        let w = WordAddr::from_tile_coords(0, 0, 0);
        assert!(m.scalar_write(w, Orientation::Row, &mut out));
        assert!(matches!(m.check_invariants(), Err(Violation::FlushDiverged { .. })));
    }

    #[test]
    fn skipped_duplicate_eviction_leaves_a_stale_copy() {
        let mut m = Model1P2L::new(2, Mutation::SkipDuplicateEviction);
        let mut out = Vec::new();
        m.fill(line(Orientation::Row, 0), 0, &mut out);
        m.fill(line(Orientation::Col, 0), 0, &mut out);
        let w = WordAddr::from_tile_coords(0, 0, 0);
        assert!(m.scalar_write(w, Orientation::Row, &mut out));
        assert!(matches!(m.check_invariants(), Err(Violation::StaleCopy { .. })));
    }

    #[test]
    fn dirty_fill_write_allocate_stays_coherent() {
        let mut m = Model1P2L::new(2, Mutation::None);
        let mut out = Vec::new();
        m.fill(line(Orientation::Col, 0), 0, &mut out);
        m.scalar_write(WordAddr::from_tile_coords(0, 0, 0), Orientation::Col, &mut out);
        // Write-allocate the intersecting row with its word 0 pre-dirty:
        // the dirty column copy must be written back and evicted.
        m.fill(line(Orientation::Row, 0), 0b01, &mut out);
        assert_eq!(out.len(), 1);
        assert!(!m.present(&line(Orientation::Col, 0)));
        assert!(m.check_invariants().is_ok());
    }

    #[test]
    fn encode_distinguishes_dirty_from_clean() {
        let mut a = Model1P2L::new(2, Mutation::None);
        let mut b = a.clone();
        let mut out = Vec::new();
        a.fill(line(Orientation::Row, 0), 0, &mut out);
        b.fill(line(Orientation::Row, 0), 0b01, &mut out);
        assert_ne!(a.encode(), b.encode());
    }
}

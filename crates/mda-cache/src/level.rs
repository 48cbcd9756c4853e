// mda-lint: hot-path
//! The [`CacheLevel`] interface and the access/probe vocabulary shared by
//! all cache organizations.

use crate::config::CacheConfig;
use crate::inline_vec::InlineVec;
use crate::stats::CacheStats;
use mda_mem::{LineKey, Orientation, WordAddr};

/// Scalar (one word) or vector (one full line) access width.
///
/// At the ISA level every memory operation — scalar or SIMD — carries a row
/// or column preference bit (paper Sec. IV-B-a); the width decides how the
/// hit condition is evaluated (paper Sec. IV-B-b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessWidth {
    /// One 8-byte word.
    Scalar,
    /// One 64-byte line (eight words along the preferred orientation).
    Vector,
}

/// One processor-side memory operation presented to a cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// The first (or only) word touched. For vector accesses this must be
    /// offset 0 of the preferred-orientation line.
    pub word: WordAddr,
    /// Compiler-assigned access-direction preference.
    pub orient: Orientation,
    /// Scalar or vector.
    pub width: AccessWidth,
    /// Whether the operation writes.
    pub is_write: bool,
    /// Static-instruction stream id (PC analog) used by the prefetcher.
    pub stream: u32,
}

impl Access {
    /// A scalar read of `word` with preference `orient`.
    pub fn scalar_read(word: WordAddr, orient: Orientation, stream: u32) -> Access {
        Access { word, orient, width: AccessWidth::Scalar, is_write: false, stream }
    }

    /// A scalar write of `word` with preference `orient`.
    pub fn scalar_write(word: WordAddr, orient: Orientation, stream: u32) -> Access {
        Access { word, orient, width: AccessWidth::Scalar, is_write: true, stream }
    }

    /// A vector read of the full line `line`.
    pub fn vector_read(line: LineKey, stream: u32) -> Access {
        Access {
            word: line.word_at(0),
            orient: line.orient,
            width: AccessWidth::Vector,
            is_write: false,
            stream,
        }
    }

    /// A vector write of the full line `line`.
    pub fn vector_write(line: LineKey, stream: u32) -> Access {
        Access { is_write: true, ..Access::vector_read(line, stream) }
    }

    /// The line this access prefers (and fills on a miss).
    pub fn preferred_line(&self) -> LineKey {
        LineKey::containing(self.word, self.orient)
    }

    /// The words touched by the access.
    pub fn words(&self) -> impl Iterator<Item = WordAddr> + '_ {
        let line = self.preferred_line();
        let n = match self.width {
            AccessWidth::Scalar => 1,
            AccessWidth::Vector => mda_mem::LINE_WORDS as u8,
        };
        let start = match self.width {
            // mda-lint: allow(lib-unwrap): geometric invariant; the target line contains self.word by construction
            AccessWidth::Scalar => line.offset_of(self.word).expect("word within line"),
            AccessWidth::Vector => 0,
        };
        (start..start + n).map(move |off| line.word_at(off))
    }

    /// Bytes moved by the access.
    pub fn bytes(&self) -> u64 {
        match self.width {
            AccessWidth::Scalar => mda_mem::WORD_BYTES,
            AccessWidth::Vector => mda_mem::LINE_BYTES,
        }
    }
}

/// A dirty line (or partial line) that must be sent to the next lower level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Writeback {
    /// The line being written back.
    pub line: LineKey,
    /// Bitmask of dirty words within the line.
    pub dirty: u8,
}

impl Writeback {
    /// Number of dirty words carried.
    pub fn words(&self) -> u8 {
        self.dirty.count_ones() as u8
    }
}

/// Upper bound on lines or writebacks a single probe can produce: a dense
/// 2P2L block fill requests all eight lines of the tile orientation, and a
/// vector write can dirty-evict at most one intersecting copy per word.
pub const PROBE_MAX: usize = mda_mem::LINE_WORDS;

/// Result of probing a cache level with an [`Access`].
///
/// Both side-effect lists are inline ([`InlineVec`]) — a steady-state probe
/// performs zero heap allocations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Probe {
    /// Whether the access can be served by this level.
    pub hit: bool,
    /// Tag-array accesses performed *beyond* the first (each costs one
    /// additional `tag_latency`, paper Sec. VI-A).
    pub extra_tag_accesses: u32,
    /// Lines this level wants from below. Empty on a hit; on a miss the
    /// first entry is the demand (critical) line; dense 2P2L fills append
    /// the other seven lines of the block.
    pub fills: InlineVec<LineKey, PROBE_MAX>,
    /// Writebacks forced by the duplicate-word policy (dirty intersecting
    /// copies that must be propagated down before this access proceeds).
    pub writebacks: InlineVec<Writeback, PROBE_MAX>,
}

impl Probe {
    /// A plain hit with no side effects.
    pub fn hit() -> Probe {
        Probe {
            hit: true,
            extra_tag_accesses: 0,
            fills: InlineVec::new(),
            writebacks: InlineVec::new(),
        }
    }

    /// Reinitializes to a plain hit in O(1): lengths are reset without
    /// touching the inline buffers, so a recycled `Probe` costs no
    /// re-zeroing on the per-access hot path.
    pub fn reset(&mut self) {
        self.hit = true;
        self.extra_tag_accesses = 0;
        self.fills.clear();
        self.writebacks.clear();
    }
}

/// Destination for writebacks produced inside a cache organization's
/// eviction/intersection helpers. Implemented for both heap `Vec`s (fill,
/// flush — unbounded output) and the probe's [`InlineVec`] (bounded), so
/// the helpers monomorphize instead of allocating intermediate vectors.
pub trait WritebackSink {
    /// Appends one writeback.
    fn push_wb(&mut self, wb: Writeback);
}

impl WritebackSink for Vec<Writeback> {
    fn push_wb(&mut self, wb: Writeback) {
        self.push(wb);
    }
}

impl<const N: usize> WritebackSink for InlineVec<Writeback, N> {
    fn push_wb(&mut self, wb: Writeback) {
        self.push(wb);
    }
}

/// Common interface of all cache organizations.
///
/// The hierarchy driver in `mda-sim` calls [`CacheLevel::probe`] on the
/// demand path, then on a miss requests the `fills` from the level below and
/// installs them with [`CacheLevel::fill`], propagating any returned
/// eviction writebacks downward.
pub trait CacheLevel {
    /// Looks up `acc`, updating replacement and dirty state on a hit,
    /// writing the result into `out` (which is `reset` first). Taking the
    /// result as an out-parameter lets the hierarchy recycle one `Probe`
    /// per recursion depth instead of zero-initializing ~300 bytes of
    /// inline buffers per access.
    fn probe_into(&mut self, acc: &Access, out: &mut Probe);

    /// Convenience wrapper returning the probe result by value.
    fn probe(&mut self, acc: &Access) -> Probe {
        let mut out = Probe::hit();
        self.probe_into(acc, &mut out);
        out
    }

    /// Installs `line` (with `dirty` words pre-marked, e.g. from an upper
    /// level's writeback or a write-allocate). Evicted dirty lines are
    /// appended to `out`, a caller-owned scratch buffer the hierarchy
    /// recycles across accesses; existing contents are preserved.
    fn fill(&mut self, line: LineKey, dirty: u8, out: &mut Vec<Writeback>);

    /// Accepts a writeback from the level above. Returns `true` if it was
    /// absorbed by updating a resident line — any dirty lines the duplicate
    /// policy had to push out are appended to `cascades` for the caller to
    /// forward downward. Returns `false` (appending nothing) if the line is
    /// absent and the caller should `fill` it instead (write-allocate of
    /// writebacks).
    fn absorb_writeback(&mut self, wb: &Writeback, cascades: &mut Vec<Writeback>) -> bool;

    /// Whether the exact line is resident (used by inclusive-check tests and
    /// partial-hit logic).
    fn contains_line(&self, line: &LineKey) -> bool;

    /// `(row_lines, col_lines, line_capacity)` currently resident — drives
    /// the paper's Fig. 15 occupancy plots.
    fn occupancy(&self) -> (usize, usize, usize);

    /// Statistics accumulated so far.
    fn stats(&self) -> &CacheStats;

    /// Mutable statistics (the hierarchy adds traffic counters).
    fn stats_mut(&mut self) -> &mut CacheStats;

    /// The level's configuration.
    fn config(&self) -> &CacheConfig;

    /// Invalidates all content (between benchmark phases); statistics are
    /// preserved. Dirty lines are appended to `out` in set order.
    fn flush(&mut self, out: &mut Vec<Writeback>);

    /// Visits every resident line as `(key, dirty_word_mask)` — the
    /// verification/debugging view the coherence property tests rely on.
    /// For a 2P2L level, a dirty line reports `0xFF` (dirtiness is tracked
    /// per line, not per word, inside a 2-D block).
    fn for_each_line(&self, f: &mut dyn FnMut(LineKey, u8));
}

/// Extension helpers over any [`CacheLevel`].
pub trait CacheLevelExt: CacheLevel {
    /// Resident row + column line count (size hint for snapshot helpers).
    fn resident_lines(&self) -> usize {
        let (rows, cols, _) = self.occupancy();
        rows + cols
    }

    /// Collects every resident line and its dirty mask.
    fn lines(&self) -> Vec<(LineKey, u8)> {
        let mut out = Vec::with_capacity(self.resident_lines());
        self.for_each_line(&mut |k, d| out.push((k, d)));
        out
    }

    /// The words currently resident (through any covering line).
    fn resident_words(&self) -> std::collections::HashSet<WordAddr> {
        let mut out = std::collections::HashSet::with_capacity(
            self.resident_lines() * mda_mem::LINE_WORDS,
        );
        self.for_each_line(&mut |k, _| out.extend(k.words()));
        out
    }

    /// The words currently dirty.
    fn dirty_words(&self) -> Vec<WordAddr> {
        let mut out = Vec::with_capacity(self.resident_lines());
        self.for_each_line(&mut |k, d| {
            for off in 0..mda_mem::LINE_WORDS as u8 {
                if d & (1 << off) != 0 {
                    out.push(k.word_at(off));
                }
            }
        });
        out
    }

    /// [`CacheLevel::fill`] collected into a fresh `Vec` (test/debug
    /// convenience; the simulator recycles scratch buffers instead).
    fn fill_collect(&mut self, line: LineKey, dirty: u8) -> Vec<Writeback> {
        // mda-lint: allow(hot-path-alloc): test/debug collector, never on the demand path
        let mut out = Vec::new();
        self.fill(line, dirty, &mut out);
        out
    }

    /// [`CacheLevel::absorb_writeback`] in the old `Option<Vec>` shape
    /// (test/debug convenience).
    fn absorb_collect(&mut self, wb: &Writeback) -> Option<Vec<Writeback>> {
        // mda-lint: allow(hot-path-alloc): test/debug collector, never on the demand path
        let mut cascades = Vec::new();
        if self.absorb_writeback(wb, &mut cascades) { Some(cascades) } else { None }
    }

    /// [`CacheLevel::flush`] collected into a fresh `Vec` (test/debug
    /// convenience).
    fn flush_collect(&mut self) -> Vec<Writeback> {
        // mda-lint: allow(hot-path-alloc): test/debug collector, never on the demand path
        let mut out = Vec::new();
        self.flush(&mut out);
        out
    }
}

impl<T: CacheLevel + ?Sized> CacheLevelExt for T {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_access_words() {
        let w = WordAddr::from_tile_coords(3, 2, 5);
        let a = Access::scalar_read(w, Orientation::Row, 0);
        assert_eq!(a.words().collect::<Vec<_>>(), vec![w]);
        assert_eq!(a.bytes(), 8);
        assert_eq!(a.preferred_line(), LineKey::new(3, Orientation::Row, 2));
    }

    #[test]
    fn vector_access_covers_line() {
        let line = LineKey::new(3, Orientation::Col, 5);
        let a = Access::vector_write(line, 7);
        assert!(a.is_write);
        assert_eq!(a.bytes(), 64);
        let words: Vec<_> = a.words().collect();
        assert_eq!(words.len(), 8);
        assert!(words.iter().all(|w| line.contains(*w)));
        assert_eq!(a.preferred_line(), line);
    }

    #[test]
    fn writeback_word_count() {
        let wb = Writeback { line: LineKey::new(0, Orientation::Row, 0), dirty: 0b1010_0001 };
        assert_eq!(wb.words(), 3);
    }
}

//! Design 2's LLC: the physically and logically 2-D cache (paper Sec. IV-C).
//!
//! Built from an on-chip MDA (STT crosspoint) array, the 2P2L cache
//! allocates **512-byte 2-D blocks** (8 rows × 8 columns × 8 B). Because a
//! block physically holds the whole tile, there is no data duplication and
//! no orientation metadata; instead each block carries a presence bit per
//! row line and per column line (16 bits per 512 B — the same overhead as
//! the valid + orientation bits of a 1P2L cache, paper Sec. IV-B-b).
//!
//! Three modes are modelled:
//!
//! * **sparse** (the paper's evaluated variant): only the demanded line is
//!   transferred into the allocated block; writebacks elide never-filled
//!   lines. Mis-oriented accesses may be served when the covering lines of
//!   the other orientation happen to be present ("partial hits").
//! * **dense** (ablation): the demand miss pulls all eight lines of the
//!   demand orientation, paying the paper's "large unit transfer cost".
//! * **rows-only** (the 2P1L taxonomy point, Sec. IV-A, which the paper
//!   names but elides): the same block array, filled sparsely, but it only
//!   ever *serves rows* — every access goes through the row line holding
//!   its word. Comparing it against 1P1L and 2P2L isolates how much of the
//!   MDA benefit comes from the physical array versus from logically 2-D
//!   caching: physical dimensionality alone buys nothing (it only adds NVM
//!   write latency and block-granular conflicts); the win comes from
//!   expressing and serving column preference.

use crate::config::CacheConfig;
use crate::inline_vec::InlineVec;
use crate::level::{Access, AccessWidth, CacheLevel, Probe, Writeback, PROBE_MAX};
use crate::set_array::{Filled, SetArray};
use crate::stats::CacheStats;
use mda_mem::{LineKey, Orientation, TileId, TILE_LINES};

/// Per-block metadata: presence and dirtiness per row/column line.
#[derive(Debug, Clone, Copy, Default)]
struct TileMeta {
    row_valid: u8,
    col_valid: u8,
    row_dirty: u8,
    col_dirty: u8,
}

impl TileMeta {
    fn valid(&self, orient: Orientation, idx: u8) -> bool {
        match orient {
            Orientation::Row => self.row_valid & (1 << idx) != 0,
            Orientation::Col => self.col_valid & (1 << idx) != 0,
        }
    }

    fn set_valid(&mut self, orient: Orientation, idx: u8) {
        match orient {
            Orientation::Row => self.row_valid |= 1 << idx,
            Orientation::Col => self.col_valid |= 1 << idx,
        }
    }

    fn set_dirty(&mut self, orient: Orientation, idx: u8) {
        match orient {
            Orientation::Row => self.row_dirty |= 1 << idx,
            Orientation::Col => self.col_dirty |= 1 << idx,
        }
    }

    /// Whether the word at tile coordinates `(r, c)` is covered by any
    /// present line.
    fn word_present(&self, r: u8, c: u8) -> bool {
        self.row_valid & (1 << r) != 0 || self.col_valid & (1 << c) != 0
    }

    /// Debug-build mirror of the model checker's `DirtyInvalidLine`
    /// invariant: a dirty bit may only be set on a present line.
    fn debug_assert_dirty_implies_valid(&self) {
        debug_assert!(
            self.row_dirty & !self.row_valid == 0 && self.col_dirty & !self.col_valid == 0,
            "dirty bit on an absent line: {self:?}"
        );
    }
}

/// Which lines a block serves and how a miss fills it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Rows and columns; a miss transfers only the demand line.
    Sparse,
    /// Rows and columns; a miss transfers every line of its orientation.
    Dense,
    /// Row lines only (2P1L); a miss transfers only the demand line. No
    /// column line is ever installed, so every `col_valid` stays zero.
    RowsOnly,
}

/// The physically 2-D cache.
#[derive(Debug, Clone)]
pub struct Cache2P2L {
    config: CacheConfig,
    array: SetArray<TileId, TileMeta>,
    mode: Mode,
    stats: CacheStats,
}

impl Cache2P2L {
    /// Builds a sparse-fill 2P2L level (the paper's evaluated variant).
    ///
    /// # Panics
    /// Panics if the configuration is invalid or smaller than one block per
    /// set.
    pub fn new(config: CacheConfig) -> Cache2P2L {
        Cache2P2L::with_fill_policy(config, true)
    }

    /// Builds a 2P2L level with an explicit fill policy (`sparse = false`
    /// gives the dense ablation variant).
    ///
    /// # Panics
    /// Panics if the configuration is invalid or smaller than one block per
    /// set.
    pub fn with_fill_policy(config: CacheConfig, sparse: bool) -> Cache2P2L {
        Cache2P2L::build(config, if sparse { Mode::Sparse } else { Mode::Dense })
    }

    /// Builds a rows-only level: the 2P1L taxonomy point, a 2-D block
    /// array that serves every access through row lines.
    ///
    /// # Panics
    /// Panics if the configuration is invalid or smaller than one block per
    /// set.
    pub fn rows_only(config: CacheConfig) -> Cache2P2L {
        Cache2P2L::build(config, Mode::RowsOnly)
    }

    fn build(config: CacheConfig, mode: Mode) -> Cache2P2L {
        if let Err(msg) = config.validate() {
            // mda-lint: allow(lib-unwrap): documented `# Panics` contract rejecting invalid configs
            panic!("invalid CacheConfig: {msg}");
        }
        assert!(config.tile_sets() > 0, "capacity too small for 512-byte blocks");
        let array = SetArray::new(config.tile_sets(), config.assoc);
        Cache2P2L { config, array, mode, stats: CacheStats::default() }
    }

    fn set_of(&self, tile: TileId) -> usize {
        self.array.set_index(tile)
    }

    /// The line that classifies `acc` and fills on its miss: the preferred
    /// line, or in rows-only mode the row line holding the accessed word
    /// (column vectors are impossible on a logically 1-D organization).
    fn target_line(&self, acc: &Access) -> LineKey {
        match (self.mode, acc.width, acc.orient) {
            (Mode::Sparse | Mode::Dense, _, _) => acc.preferred_line(),
            // mda-lint: allow(lib-unwrap): documented API contract; the compiler never emits column vectors for 2P1L
            (Mode::RowsOnly, AccessWidth::Vector, Orientation::Col) => panic!(
                "column vector access reached a 2P1L cache; the compiler \
                 must lower these to scalars for logically 1-D hierarchies"
            ),
            (Mode::RowsOnly, _, _) => LineKey::containing(acc.word, Orientation::Row),
        }
    }

    /// Appends the fill lines demanded on a miss of `line`: just the demand
    /// line when sparse or rows-only; the demand line followed by the rest
    /// of its orientation when dense (at most eight lines, so the probe's
    /// inline buffer always suffices).
    fn fill_lines(
        &self,
        line: LineKey,
        meta: Option<&TileMeta>,
        fills: &mut InlineVec<LineKey, PROBE_MAX>,
    ) {
        fills.push(line);
        if self.mode != Mode::Dense {
            return;
        }
        for idx in 0..TILE_LINES as u8 {
            if idx == line.idx {
                continue;
            }
            let already = meta.map(|m| m.valid(line.orient, idx)).unwrap_or(false);
            if !already {
                fills.push(LineKey::new(line.tile, line.orient, idx));
            }
        }
    }

    /// Appends the dirty lines of an evicted block to `out`, returning how
    /// many writebacks were produced (for the traffic counter).
    fn push_writebacks(tile: TileId, meta: &TileMeta, out: &mut Vec<Writeback>) -> u64 {
        let mut n = 0;
        for idx in 0..TILE_LINES as u8 {
            if meta.row_dirty & (1 << idx) != 0 {
                out.push(Writeback {
                    line: LineKey::new(tile, Orientation::Row, idx),
                    dirty: 0xFF,
                });
                n += 1;
            }
            if meta.col_dirty & (1 << idx) != 0 {
                out.push(Writeback {
                    line: LineKey::new(tile, Orientation::Col, idx),
                    dirty: 0xFF,
                });
                n += 1;
            }
        }
        n
    }

    /// Marks the written words dirty through whichever resident lines cover
    /// them.
    fn mark_dirty(meta: &mut TileMeta, acc: &Access) {
        for w in acc.words() {
            let (r, c) = (w.row_in_tile(), w.col_in_tile());
            // Prefer dirtying along the access orientation when that line is
            // resident; otherwise dirty the covering line.
            let via = if meta.valid(
                acc.orient,
                match acc.orient {
                    Orientation::Row => r,
                    Orientation::Col => c,
                },
            ) {
                acc.orient
            } else if meta.row_valid & (1 << r) != 0 {
                Orientation::Row
            } else {
                debug_assert!(meta.col_valid & (1 << c) != 0, "write to absent word");
                Orientation::Col
            };
            match via {
                Orientation::Row => meta.set_dirty(Orientation::Row, r),
                Orientation::Col => meta.set_dirty(Orientation::Col, c),
            }
        }
    }
}

impl CacheLevel for Cache2P2L {
    fn probe_into(&mut self, acc: &Access, out: &mut Probe) {
        out.reset();
        let set = self.set_of(acc.word.tile());
        let preferred = self.target_line(acc);

        // One set scan classifies the access, refreshes recency, and (on a
        // write hit) marks dirty bits through the same borrow; the metadata
        // is tiny and `Copy`, so the miss path keeps a snapshot for
        // `fill_lines` instead of re-scanning the set. In rows-only mode no
        // column line is present, so the classification reduces to the
        // presence of the target row line and never reports a partial hit,
        // and a write dirties that row.
        let mut resident = None;
        let (hit, covered) = match self.array.get_mut(set, acc.word.tile()) {
            None => (false, false),
            Some(meta) => {
                let classified = match acc.width {
                    AccessWidth::Scalar => {
                        let present =
                            meta.word_present(acc.word.row_in_tile(), acc.word.col_in_tile());
                        let aligned = meta.valid(preferred.orient, preferred.idx);
                        (present, present && !aligned)
                    }
                    AccessWidth::Vector => {
                        if meta.valid(preferred.orient, preferred.idx) {
                            (true, false)
                        } else {
                            // Partial hit: every word covered by intersecting
                            // lines of the other orientation.
                            let covered = match preferred.orient {
                                Orientation::Row => meta.col_valid == 0xFF,
                                Orientation::Col => meta.row_valid == 0xFF,
                            };
                            (covered, covered)
                        }
                    }
                };
                if classified.0 && acc.is_write {
                    Self::mark_dirty(meta, acc);
                }
                meta.debug_assert_dirty_implies_valid();
                resident = Some(*meta);
                classified
            }
        };

        self.stats.note_access(acc, hit);
        if covered {
            self.stats.misoriented_hits += 1;
        }
        if !hit {
            out.hit = false;
            self.fill_lines(preferred, resident.as_ref(), &mut out.fills);
        }
    }

    fn fill(&mut self, line: LineKey, dirty: u8, out: &mut Vec<Writeback>) {
        debug_assert!(
            self.mode != Mode::RowsOnly || line.orient == Orientation::Row,
            "2P1L stores row lines only"
        );
        let set = self.set_of(line.tile);
        // A resident block merges the line into its bitmaps; an absent one
        // is allocated holding just this line.
        let add_line = |meta: &mut TileMeta| {
            meta.set_valid(line.orient, line.idx);
            if dirty != 0 {
                meta.set_dirty(line.orient, line.idx);
            }
            meta.debug_assert_dirty_implies_valid();
        };
        let mut fresh = TileMeta::default();
        add_line(&mut fresh);
        match self.array.fill(set, line.tile, fresh) {
            Filled::Hit(meta) => add_line(meta),
            Filled::Inserted(victim) => {
                self.stats.demand_fills += 1;
                if let Some((victim, vm)) = victim {
                    self.stats.writebacks_out += Self::push_writebacks(victim, &vm, out);
                }
            }
        }
    }

    fn absorb_writeback(&mut self, wb: &Writeback, _cascades: &mut Vec<Writeback>) -> bool {
        if self.mode == Mode::RowsOnly && wb.line.orient != Orientation::Row {
            return false;
        }
        let set = self.set_of(wb.line.tile);
        match self.array.get_mut(set, wb.line.tile) {
            Some(meta) => {
                meta.set_valid(wb.line.orient, wb.line.idx);
                meta.set_dirty(wb.line.orient, wb.line.idx);
                meta.debug_assert_dirty_implies_valid();
                true
            }
            None => false,
        }
    }

    fn contains_line(&self, line: &LineKey) -> bool {
        self.array
            .peek(self.set_of(line.tile), line.tile)
            .is_some_and(|m| m.valid(line.orient, line.idx))
    }

    fn occupancy(&self) -> (usize, usize, usize) {
        let mut rows = 0;
        let mut cols = 0;
        for (_, meta) in self.array.iter() {
            rows += meta.row_valid.count_ones() as usize;
            cols += meta.col_valid.count_ones() as usize;
        }
        (rows, cols, self.config.line_frames())
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn stats_mut(&mut self) -> &mut CacheStats {
        &mut self.stats
    }

    fn config(&self) -> &CacheConfig {
        &self.config
    }

    fn flush(&mut self, out: &mut Vec<Writeback>) {
        let Cache2P2L { array, stats, .. } = self;
        array.drain_all(|_set, tile, meta| {
            stats.writebacks_out += Self::push_writebacks(tile, &meta, out);
        });
    }

    fn for_each_line(&self, f: &mut dyn FnMut(LineKey, u8)) {
        for (tile, meta) in self.array.iter() {
            for idx in 0..TILE_LINES as u8 {
                if meta.row_valid & (1 << idx) != 0 {
                    let dirty = if meta.row_dirty & (1 << idx) != 0 { 0xFF } else { 0 };
                    f(LineKey::new(tile, Orientation::Row, idx), dirty);
                }
                if meta.col_valid & (1 << idx) != 0 {
                    let dirty = if meta.col_dirty & (1 << idx) != 0 { 0xFF } else { 0 };
                    f(LineKey::new(tile, Orientation::Col, idx), dirty);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::CacheLevelExt;
    use mda_mem::WordAddr;

    fn cache() -> Cache2P2L {
        // 16 KiB, 8-way → 4 tile sets of 8 blocks.
        let mut cfg = CacheConfig::l3(16 * 1024);
        cfg.assoc = 8;
        Cache2P2L::new(cfg)
    }

    #[test]
    fn sparse_miss_fetches_only_demand_line() {
        let mut c = cache();
        let line = LineKey::new(3, Orientation::Col, 2);
        let p = c.probe(&Access::vector_read(line, 0));
        assert!(!p.hit);
        assert_eq!(p.fills, vec![line]);
        c.fill_collect(line, 0);
        assert!(c.probe(&Access::vector_read(line, 0)).hit);
        assert_eq!(c.occupancy(), (0, 1, 256));
    }

    #[test]
    fn dense_miss_fetches_whole_block_orientation() {
        let mut cfg = CacheConfig::l3(16 * 1024);
        cfg.assoc = 8;
        let mut c = Cache2P2L::with_fill_policy(cfg, false);
        let line = LineKey::new(3, Orientation::Row, 2);
        let p = c.probe(&Access::vector_read(line, 0));
        assert_eq!(p.fills.len(), 8);
        assert_eq!(p.fills[0], line, "demand line first (critical line first)");
    }

    #[test]
    fn no_duplication_inside_a_block() {
        let mut c = cache();
        c.fill_collect(LineKey::new(0, Orientation::Row, 2), 0);
        c.fill_collect(LineKey::new(0, Orientation::Col, 6), 0);
        // The shared word is covered by both; writing it through the row
        // does not need any duplicate eviction (same physical storage).
        let shared = WordAddr::from_tile_coords(0, 2, 6);
        let p = c.probe(&Access::scalar_write(shared, Orientation::Row, 0));
        assert!(p.hit);
        assert!(p.writebacks.is_empty());
        assert!(c.contains_line(&LineKey::new(0, Orientation::Col, 6)));
    }

    #[test]
    fn scalar_hit_via_other_orientation_is_a_partial_hit() {
        let mut c = cache();
        c.fill_collect(LineKey::new(0, Orientation::Row, 2), 0);
        let word = WordAddr::from_tile_coords(0, 2, 5);
        let p = c.probe(&Access::scalar_read(word, Orientation::Col, 0));
        assert!(p.hit);
        assert_eq!(c.stats().misoriented_hits, 1);
    }

    #[test]
    fn vector_partial_hit_requires_full_coverage() {
        let mut c = cache();
        for r in 0..7 {
            c.fill_collect(LineKey::new(0, Orientation::Row, r), 0);
        }
        let col = LineKey::new(0, Orientation::Col, 3);
        assert!(!c.probe(&Access::vector_read(col, 0)).hit, "7/8 rows: not covered");
        c.fill_collect(LineKey::new(0, Orientation::Row, 7), 0);
        let p = c.probe(&Access::vector_read(col, 0));
        assert!(p.hit, "8/8 rows cover any column vector");
        assert_eq!(c.stats().misoriented_hits, 1);
    }

    #[test]
    fn eviction_is_block_granular_and_elides_clean_lines() {
        let mut cfg = CacheConfig::l3(16 * 1024);
        cfg.assoc = 8;
        let mut c = Cache2P2L::new(cfg);
        // Tile 0: one dirty row, one clean col.
        c.fill_collect(LineKey::new(0, Orientation::Row, 1), 0xFF);
        c.fill_collect(LineKey::new(0, Orientation::Col, 4), 0);
        // Evict tile 0 by filling 8 more tiles into set 0 (tiles ≡ 0 mod 4).
        let mut wbs = Vec::new();
        for k in 1..=8u64 {
            wbs.extend(c.fill_collect(LineKey::new(4 * k, Orientation::Row, 0), 0));
        }
        assert_eq!(wbs.len(), 1, "only the dirty row line is written back");
        assert_eq!(wbs[0].line, LineKey::new(0, Orientation::Row, 1));
        assert!(!c.contains_line(&LineKey::new(0, Orientation::Col, 4)), "whole block evicted");
    }

    #[test]
    fn absorb_writeback_sparsely_updates_resident_block() {
        let mut c = cache();
        let line = LineKey::new(5, Orientation::Col, 1);
        c.fill_collect(line, 0);
        let other = LineKey::new(5, Orientation::Row, 3);
        assert!(c.absorb_collect(&Writeback { line: other, dirty: 0xFF }).is_some());
        assert!(c.contains_line(&other));
        // An absent block cannot absorb — the caller allocates sparsely.
        let faraway = LineKey::new(77, Orientation::Row, 0);
        assert!(c.absorb_collect(&Writeback { line: faraway, dirty: 0xFF }).is_none());
    }

    #[test]
    fn write_via_covering_line_marks_it_dirty() {
        let mut c = cache();
        c.fill_collect(LineKey::new(0, Orientation::Row, 2), 0);
        // Column-preferring write to a word only covered by row 2.
        let w = WordAddr::from_tile_coords(0, 2, 5);
        assert!(c.probe(&Access::scalar_write(w, Orientation::Col, 0)).hit);
        let wbs = c.flush_collect();
        assert_eq!(wbs.len(), 1);
        assert_eq!(wbs[0].line, LineKey::new(0, Orientation::Row, 2));
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = cache();
        c.fill_collect(LineKey::new(1, Orientation::Row, 0), 0xFF);
        c.fill_collect(LineKey::new(2, Orientation::Col, 3), 0);
        let wbs = c.flush_collect();
        assert_eq!(wbs.len(), 1);
        assert_eq!(c.occupancy().0 + c.occupancy().1, 0);
    }

    fn rows_only_cache() -> Cache2P2L {
        let mut cfg = CacheConfig::l3(16 * 1024);
        cfg.assoc = 8;
        Cache2P2L::rows_only(cfg)
    }

    #[test]
    fn rows_only_row_fill_then_hit() {
        let mut c = rows_only_cache();
        let line = LineKey::new(3, Orientation::Row, 2);
        let p = c.probe(&Access::vector_read(line, 0));
        assert!(!p.hit);
        assert_eq!(p.fills, vec![line], "sparse row fill only");
        c.fill_collect(line, 0);
        assert!(c.probe(&Access::vector_read(line, 0)).hit);
    }

    #[test]
    fn rows_only_column_scalar_is_served_through_row_lines() {
        let mut c = rows_only_cache();
        let w = WordAddr::from_tile_coords(1, 4, 6);
        let p = c.probe(&Access::scalar_read(w, Orientation::Col, 0));
        assert_eq!(p.fills, vec![LineKey::new(1, Orientation::Row, 4)]);
    }

    #[test]
    #[should_panic(expected = "column vector access")]
    fn rows_only_column_vectors_are_rejected() {
        let mut c = rows_only_cache();
        let _ = c.probe(&Access::vector_read(LineKey::new(0, Orientation::Col, 0), 0));
    }

    #[test]
    fn rows_only_eviction_is_block_granular() {
        let mut c = rows_only_cache();
        // Two rows of tile 0 resident, one dirty.
        c.fill_collect(LineKey::new(0, Orientation::Row, 0), 0xFF);
        c.fill_collect(LineKey::new(0, Orientation::Row, 5), 0);
        // Displace tile 0 (set 0 holds tiles ≡ 0 mod 4, 8 ways).
        let mut wbs = Vec::new();
        for k in 1..=8u64 {
            wbs.extend(c.fill_collect(LineKey::new(4 * k, Orientation::Row, 0), 0));
        }
        assert_eq!(wbs.len(), 1, "only the dirty row written back");
        assert!(!c.contains_line(&LineKey::new(0, Orientation::Row, 5)));
    }

    #[test]
    fn rows_only_occupancy_counts_rows_only() {
        let mut c = rows_only_cache();
        c.fill_collect(LineKey::new(0, Orientation::Row, 0), 0);
        c.fill_collect(LineKey::new(0, Orientation::Row, 1), 0);
        assert_eq!(c.occupancy(), (2, 0, 256));
    }

    #[test]
    #[should_panic(expected = "capacity too small")]
    fn tiny_capacity_rejected() {
        let mut cfg = CacheConfig::l3(1024);
        cfg.assoc = 4;
        // 1 KiB / 512 B = 2 blocks < 4-way: zero sets.
        let _ = Cache2P2L::new(cfg);
    }
}

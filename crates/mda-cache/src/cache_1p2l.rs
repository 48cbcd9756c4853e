//! Design 1: physically 1-D, logically 2-D cache (paper Sec. IV-C).
//!
//! Row and column lines are both stored as dense word sequences in ordinary
//! SRAM; an orientation bit per line distinguishes them (here it lives in
//! the [`LineKey`]). Two index mappings are supported:
//!
//! * **Different-Set** — rows/columns of a 2-D block spread over different
//!   sets (tag kept at tile granularity). The preferred orientation is
//!   probed first; probing the other orientation, and checking the up-to-8
//!   intersecting lines on vector misses and writes, costs extra sequential
//!   tag accesses which this model reports in [`Probe::extra_tag_accesses`].
//! * **Same-Set** — all sixteen lines of a block map to one set, so both
//!   orientations are seen in a single set read (no extra tag latency) at
//!   the price of set-conflict pressure.
//!
//! Duplicate words (intersecting row/column lines co-resident) are managed
//! by the Fig. 9 policy: duplication is allowed only while clean; writes
//! evict other copies; fills write dirty intersections back first (the
//! `mda-check` model checker proves these invariants against this cache).
//! Per-word dirty bits (one per word, paper Sec. IV-C) keep false sharing
//! from inflating writeback traffic.
//!
//! The conventional 1P1L baseline is this array holding row lines only
//! ([`Cache1P2L::rows_only`]): the Different-Set row index, a column
//! scalar served by the row line holding its word (the paper's baseline
//! fetches one row line per column word), and no column line ever
//! resident, so the tile filter turns every duplicate-policy path into a
//! no-op. Column *vector* accesses are impossible on it; the compiler
//! lowers them to eight scalars when targeting a 1-D hierarchy.

use crate::config::{CacheConfig, SetMapping};
use crate::level::{Access, AccessWidth, CacheLevel, Probe, Writeback, WritebackSink};
use crate::set_array::{Filled, SetArray};
use crate::stats::CacheStats;
use mda_mem::{LineKey, Orientation, TILE_LINES};

/// Per-line metadata: one dirty bit per word.
#[derive(Debug, Clone, Copy, Default)]
struct LineMeta {
    dirty: u8,
}

/// Number of slots in the [`TileFilter`] of a logically 2-D level (power
/// of two).
const FILTER_SLOTS: usize = 4096;

/// Counting filter over resident lines, one lane per orientation, indexed
/// by the masked tile id. A zero count proves no line of that orientation
/// of that tile is resident, which lets the duplicate-policy paths skip
/// their up-to-eight intersection probes; a collision merely fails to skip
/// probes that would have found nothing, so the filter never changes an
/// outcome.
#[derive(Debug, Clone)]
struct TileFilter {
    counts: [Vec<u32>; 2],
    /// `slots - 1`: the mask of a tile id's slot.
    mask: usize,
}

impl TileFilter {
    /// A filter of `slots` slots per lane (a power of two).
    fn new(slots: usize) -> TileFilter {
        debug_assert!(slots.is_power_of_two());
        TileFilter { counts: [vec![0; slots], vec![0; slots]], mask: slots - 1 }
    }

    #[inline]
    fn slot(&self, tile: u64) -> usize {
        tile as usize & self.mask
    }

    #[inline]
    fn add(&mut self, line: &LineKey) {
        let slot = self.slot(line.tile);
        self.counts[line.orient as usize][slot] += 1;
    }

    #[inline]
    fn remove(&mut self, line: &LineKey) {
        let slot = self.slot(line.tile);
        self.counts[line.orient as usize][slot] -= 1;
    }

    /// Whether a line of `orient` from `tile` *may* be resident. `false`
    /// is definitive; `true` may be a collision.
    #[inline]
    fn may_contain(&self, orient: Orientation, tile: u64) -> bool {
        self.counts[orient as usize][self.slot(tile)] != 0
    }

    fn clear(&mut self) {
        for lane in &mut self.counts {
            lane.iter_mut().for_each(|c| *c = 0);
        }
    }
}

/// Which lines a level holds and how it indexes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Rows and columns; a line's set is `tile * 8 + idx`.
    DifferentSet,
    /// Rows and columns; all sixteen lines of a tile share the set `tile`.
    SameSet,
    /// Row lines only (the 1P1L baseline), indexed as Different-Set. No
    /// column line is ever installed, so the column lane of the filter
    /// stays zero.
    RowsOnly,
}

impl Mode {
    /// Whether `writebacks_out` counts dirty evictions and flushes. A
    /// rows-only level counts neither, exactly as the stand-alone 1P1L
    /// cache it replaced: perfbench's reference digests hash that field,
    /// so this guard is deleted by the benchmark change that fixes the
    /// traffic counters (ROADMAP), together with the re-baselined digests.
    fn counts_writebacks_out(self) -> bool {
        self != Mode::RowsOnly
    }
}

/// The logically 2-D, physically 1-D cache.
#[derive(Debug, Clone)]
pub struct Cache1P2L {
    config: CacheConfig,
    mode: Mode,
    array: SetArray<LineKey, LineMeta>,
    filter: TileFilter,
    row_lines: usize,
    col_lines: usize,
    stats: CacheStats,
}

impl Cache1P2L {
    /// Builds a 1P2L level from `config` with the given index `mapping`.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn new(config: CacheConfig, mapping: SetMapping) -> Cache1P2L {
        Cache1P2L::build(
            config,
            match mapping {
                SetMapping::DifferentSet => Mode::DifferentSet,
                SetMapping::SameSet => Mode::SameSet,
            },
        )
    }

    /// Builds a rows-only level: the conventional 1P1L baseline, a 1-D
    /// array that serves every access through row lines.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn rows_only(config: CacheConfig) -> Cache1P2L {
        Cache1P2L::build(config, Mode::RowsOnly)
    }

    fn build(config: CacheConfig, mode: Mode) -> Cache1P2L {
        if let Err(msg) = config.validate() {
            // mda-lint: allow(lib-unwrap): documented `# Panics` contract rejecting invalid configs
            panic!("invalid CacheConfig: {msg}");
        }
        let array = SetArray::new(config.line_sets(), config.assoc);
        Cache1P2L {
            config,
            mode,
            array,
            // A rows-only level's column lane stays zero at any size, so
            // one slot per lane suffices and every lookup reads the same
            // two counters.
            filter: TileFilter::new(if mode == Mode::RowsOnly { 1 } else { FILTER_SLOTS }),
            row_lines: 0,
            col_lines: 0,
            stats: CacheStats::default(),
        }
    }

    fn set_of(&self, line: &LineKey) -> usize {
        match self.mode {
            Mode::DifferentSet | Mode::RowsOnly => {
                self.array.set_index(line.tile * 8 + u64::from(line.idx))
            }
            Mode::SameSet => self.array.set_index(line.tile),
        }
    }

    /// Extra sequential tag accesses for probing the non-preferred
    /// orientation: Different-Set reads a second set; Same-Set sees both
    /// orientations in one set read; a rows-only level has no other
    /// orientation to probe.
    fn cross_check_cost(&self, lines: u32) -> u32 {
        match self.mode {
            Mode::DifferentSet => lines,
            Mode::SameSet | Mode::RowsOnly => 0,
        }
    }

    /// The line that classifies `acc` and fills on its miss: the preferred
    /// line, or in rows-only mode the row line holding the accessed word.
    fn target_line(&self, acc: &Access) -> LineKey {
        match (self.mode, acc.width, acc.orient) {
            (Mode::RowsOnly, AccessWidth::Vector, Orientation::Col) => {
                // mda-lint: allow(lib-unwrap): documented API contract; the compiler never emits column vectors for 1P1L
                panic!(
                    "column vector access reached a 1P1L cache; the compiler \
                     must lower these to scalars for 1-D hierarchies"
                )
            }
            (Mode::RowsOnly, _, _) => LineKey::containing(acc.word, Orientation::Row),
            _ => acc.preferred_line(),
        }
    }

    fn present(&self, line: &LineKey) -> bool {
        self.filter.may_contain(line.orient, line.tile)
            && self.array.peek(self.set_of(line), *line).is_some()
    }

    /// `get_mut` gated by the tile filter: a zero count proves the miss
    /// without scanning the set (and a missed `get_mut` has no side
    /// effects, so skipping it changes nothing).
    fn lookup_mut(&mut self, line: &LineKey) -> Option<&mut LineMeta> {
        if !self.filter.may_contain(line.orient, line.tile) {
            return None;
        }
        let set = self.set_of(line);
        self.array.get_mut(set, *line)
    }

    fn note_line_removed(&mut self, line: &LineKey) {
        self.filter.remove(line);
        match line.orient {
            Orientation::Row => self.row_lines -= 1,
            Orientation::Col => self.col_lines -= 1,
        }
    }

    fn note_line_added(&mut self, line: &LineKey) {
        self.filter.add(line);
        match line.orient {
            Orientation::Row => self.row_lines += 1,
            Orientation::Col => self.col_lines += 1,
        }
    }

    /// Removes `line`, emitting a writeback if it holds dirty words.
    fn evict_line(&mut self, line: LineKey, out: &mut impl WritebackSink) {
        let set = self.set_of(&line);
        if let Some(meta) = self.array.remove(set, line) {
            self.note_line_removed(&line);
            self.stats.dup_evictions += 1;
            if meta.dirty != 0 {
                self.stats.dup_writebacks += 1;
                self.stats.writebacks_out += 1;
                out.push_wb(Writeback { line, dirty: meta.dirty });
            }
        }
    }

    /// Cleans `line` in place (Fig. 9: Modified → Clean on
    /// read-to-duplicate), emitting the writeback of its dirty words.
    fn clean_line(&mut self, line: LineKey, out: &mut impl WritebackSink) {
        let set = self.set_of(&line);
        if let Some(meta) = self.array.get_mut(set, line) {
            if meta.dirty != 0 {
                let dirty = meta.dirty;
                meta.dirty = 0;
                self.stats.dup_writebacks += 1;
                self.stats.writebacks_out += 1;
                out.push_wb(Writeback { line, dirty });
            }
        }
    }

    /// Resolves duplication before `line` is (re)filled with `dirty` words
    /// pre-modified: intersecting other-orientation lines are cleaned when
    /// the new copy is a read duplicate, and evicted when the corresponding
    /// word is being modified.
    fn resolve_intersections(&mut self, line: &LineKey, dirty: u8, out: &mut impl WritebackSink) {
        // No other-orientation line of this tile resident → nothing can
        // intersect; skip the eight probes.
        if !self.filter.may_contain(line.orient.other(), line.tile) {
            return;
        }
        for off in 0..TILE_LINES as u8 {
            let word = line.word_at(off);
            let other = line.intersecting_at(word);
            if !self.present(&other) {
                continue;
            }
            if dirty & (1 << off) != 0 {
                // Write to duplicate: other copies are evicted.
                self.evict_line(other, out);
            } else {
                // Read to duplicate: a dirty other copy is propagated first.
                // mda-lint: allow(lib-unwrap): geometric invariant; intersecting_at returns a line containing the word
                let other_off = other.offset_of(word).expect("intersection is on the line");
                let other_dirty = self
                    .array
                    .peek(self.set_of(&other), other)
                    .map(|m| m.dirty & (1 << other_off) != 0)
                    .unwrap_or(false);
                if other_dirty {
                    self.clean_line(other, out);
                }
                self.stats.duplications += 1;
            }
        }
    }

    /// Debug-build mirror of the model checker's `DirtyNotSole` invariant:
    /// a dirty word must be that word's only resident copy — duplication is
    /// legal only while every shared word is clean (Fig. 9). Scans the whole
    /// array, so it compiles to nothing in release builds, and returns at
    /// once while one orientation is absent (nothing can be duplicated).
    #[cfg(debug_assertions)]
    fn debug_assert_dirty_words_sole(&self) {
        if self.row_lines == 0 || self.col_lines == 0 {
            return;
        }
        for (key, meta) in self.array.iter() {
            let mut dirty = meta.dirty;
            while dirty != 0 {
                let off = dirty.trailing_zeros() as u8;
                dirty &= dirty - 1;
                let other = key.intersecting_at(key.word_at(off));
                debug_assert!(
                    !self.present(&other),
                    "dirty word duplicated: {key} word {off} also resident in {other}"
                );
            }
        }
    }

    #[cfg(not(debug_assertions))]
    fn debug_assert_dirty_words_sole(&self) {}

    /// Applies a demand write to `line` if it is resident, enforcing the
    /// duplicate policy on every written word; returns whether it was.
    fn write_resident(&mut self, line: LineKey, mask: u8, out: &mut impl WritebackSink) -> bool {
        // One scan finds the line and refreshes its recency. Evicting the
        // other copies after it leaves the same state as evicting them
        // first: removals touch neither the LRU clock nor this line's way.
        match self.lookup_mut(&line) {
            Some(meta) => meta.dirty |= mask,
            None => return false,
        }
        // Evict other copies of the written words (skipped outright when
        // the filter proves no intersecting line is resident).
        if self.filter.may_contain(line.orient.other(), line.tile) {
            for off in 0..TILE_LINES as u8 {
                if mask & (1 << off) == 0 {
                    continue;
                }
                let other = line.intersecting_at(line.word_at(off));
                if self.present(&other) {
                    self.evict_line(other, out);
                }
            }
        }
        true
    }
}

impl CacheLevel for Cache1P2L {
    fn probe_into(&mut self, acc: &Access, out: &mut Probe) {
        out.reset();
        let preferred = self.target_line(acc);

        match acc.width {
            AccessWidth::Vector => {
                if acc.is_write {
                    // Both orientations must be checked on writes.
                    out.extra_tag_accesses += self.cross_check_cost(TILE_LINES as u32);
                    if !self.write_resident(preferred, 0xFF, &mut out.writebacks) {
                        out.hit = false;
                        out.fills.push(preferred);
                    }
                } else if self.lookup_mut(&preferred).is_none() {
                    // Vector hits require the correctly aligned line; one
                    // `get_mut` both probes and refreshes recency (misses
                    // leave the LRU clock untouched). On a miss the
                    // up-to-eight intersecting lines of the other
                    // orientation are checked for dirty data to propagate.
                    out.hit = false;
                    out.fills.push(preferred);
                    out.extra_tag_accesses += self.cross_check_cost(TILE_LINES as u32);
                }
            }
            AccessWidth::Scalar => {
                if acc.is_write {
                    // mda-lint: allow(lib-unwrap): geometric invariant; preferred line contains the word by construction
                    let off = preferred.offset_of(acc.word).expect("word within preferred line");
                    let other = preferred.intersecting_at(acc.word);
                    let other_off =
                        // mda-lint: allow(lib-unwrap): geometric invariant; intersecting_at returns a line containing the word
                        other.offset_of(acc.word).expect("intersection is on the line");
                    // Writes always check both orientations.
                    out.extra_tag_accesses += self.cross_check_cost(1);
                    if !self.write_resident(preferred, 1 << off, &mut out.writebacks) {
                        if self.write_resident(other, 1 << other_off, &mut out.writebacks) {
                            // Mis-oriented write hit: the word's sole copy
                            // lives in the other orientation; modify it there.
                            self.stats.misoriented_hits += 1;
                        } else {
                            out.hit = false;
                            out.fills.push(preferred);
                        }
                    }
                } else if self.lookup_mut(&preferred).is_none() {
                    // Reads probe the preferred orientation with a single
                    // scan that also refreshes recency on a hit. A hit in
                    // the non-preferred orientation after a preferred miss
                    // costs one extra sequential tag access (Different-Set).
                    out.extra_tag_accesses += self.cross_check_cost(1);
                    let other = preferred.intersecting_at(acc.word);
                    if self.lookup_mut(&other).is_some() {
                        self.stats.misoriented_hits += 1;
                    } else {
                        out.hit = false;
                        out.fills.push(preferred);
                    }
                }
            }
        }

        // Classified as issued: a rows-only level still counts a column
        // scalar as one.
        self.stats.note_access(acc, out.hit);
        self.stats.extra_tag_accesses += u64::from(out.extra_tag_accesses);
        self.debug_assert_dirty_words_sole();
    }

    fn fill(&mut self, line: LineKey, dirty: u8, out: &mut Vec<Writeback>) {
        debug_assert!(
            self.mode != Mode::RowsOnly || line.orient == Orientation::Row,
            "1P1L holds row lines only"
        );
        if self.filter.may_contain(line.orient.other(), line.tile) {
            if let Some(meta) = self.lookup_mut(&line) {
                // Already resident (e.g. race with a coalesced fill): merge.
                meta.dirty |= dirty;
                if dirty != 0 {
                    self.resolve_intersections(&line, dirty, out);
                }
                return;
            }
            self.resolve_intersections(&line, dirty, out);
        }
        // No intersecting line is left to clean or evict, so one scan
        // either merges into the resident line or installs it (under
        // Same-Set mapping only after resolving, which may free a way).
        let set = self.set_of(&line);
        match self.array.fill(set, line, LineMeta { dirty }) {
            Filled::Hit(meta) => meta.dirty |= dirty,
            Filled::Inserted(evicted) => {
                self.stats.demand_fills += 1;
                if let Some((victim, meta)) = evicted {
                    self.note_line_removed(&victim);
                    if meta.dirty != 0 {
                        if self.mode.counts_writebacks_out() {
                            self.stats.writebacks_out += 1;
                        }
                        out.push(Writeback { line: victim, dirty: meta.dirty });
                    }
                }
                self.note_line_added(&line);
            }
        }
        self.debug_assert_dirty_words_sole();
    }

    fn absorb_writeback(&mut self, wb: &Writeback, cascades: &mut Vec<Writeback>) -> bool {
        // The incoming dirty words modify this copy: other copies of those
        // words must go (write-to-duplicate), and any dirty ones must be
        // propagated further down by the caller.
        let before = cascades.len();
        if !self.write_resident(wb.line, wb.dirty, cascades) {
            return false;
        }
        debug_assert!(cascades[before..].iter().all(|w| w.line.overlaps(&wb.line)));
        self.debug_assert_dirty_words_sole();
        true
    }

    fn contains_line(&self, line: &LineKey) -> bool {
        self.present(line)
    }

    fn occupancy(&self) -> (usize, usize, usize) {
        (self.row_lines, self.col_lines, self.config.line_frames())
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
        let Cache1P2L { array, row_lines, col_lines, stats, filter, mode, .. } = self;
        array.drain_all(|_set, key, meta| {
            match key.orient {
                Orientation::Row => *row_lines -= 1,
                Orientation::Col => *col_lines -= 1,
            }
            if meta.dirty != 0 {
                if mode.counts_writebacks_out() {
                    stats.writebacks_out += 1;
                }
                out.push(Writeback { line: key, dirty: meta.dirty });
            }
        });
        filter.clear();
    }

    fn for_each_line(&self, f: &mut dyn FnMut(LineKey, u8)) {
        for (key, meta) in self.array.iter() {
            f(key, meta.dirty);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::CacheLevelExt;
    use mda_mem::{Orientation, WordAddr};

    fn cache(mapping: SetMapping) -> Cache1P2L {
        let mut cfg = CacheConfig::l1_32k();
        cfg.size_bytes = 4096; // 16 sets × 4 ways
        Cache1P2L::new(cfg, mapping)
    }

    fn rows_only() -> Cache1P2L {
        let mut cfg = CacheConfig::l1_32k();
        cfg.size_bytes = 4096; // 16 sets × 4 ways
        Cache1P2L::rows_only(cfg)
    }

    #[test]
    fn column_vector_miss_fills_column_line() {
        let mut c = cache(SetMapping::DifferentSet);
        let line = LineKey::new(2, Orientation::Col, 5);
        let p = c.probe(&Access::vector_read(line, 0));
        assert!(!p.hit);
        assert_eq!(p.fills, vec![line]);
        c.fill_collect(line, 0);
        assert!(c.probe(&Access::vector_read(line, 0)).hit);
        assert_eq!(c.occupancy(), (0, 1, 64));
    }

    #[test]
    fn scalar_hit_ignores_alignment() {
        let mut c = cache(SetMapping::DifferentSet);
        let row = LineKey::new(0, Orientation::Row, 3);
        c.fill_collect(row, 0);
        // A column-preferring scalar read of a word in that row line hits.
        let acc = Access::scalar_read(row.word_at(6), Orientation::Col, 0);
        let p = c.probe(&acc);
        assert!(p.hit);
        assert_eq!(p.extra_tag_accesses, 1, "different-set pays one extra check");
        assert_eq!(c.stats().misoriented_hits, 1);
    }

    #[test]
    fn same_set_mapping_has_no_extra_tag_cost() {
        let mut c = cache(SetMapping::SameSet);
        let row = LineKey::new(0, Orientation::Row, 3);
        c.fill_collect(row, 0);
        let acc = Access::scalar_read(row.word_at(6), Orientation::Col, 0);
        let p = c.probe(&acc);
        assert!(p.hit);
        assert_eq!(p.extra_tag_accesses, 0);
    }

    #[test]
    fn vector_hit_requires_alignment() {
        let mut c = cache(SetMapping::DifferentSet);
        // Fill all 8 row lines of tile 0 — every word present.
        for r in 0..8 {
            c.fill_collect(LineKey::new(0, Orientation::Row, r), 0);
        }
        // A column vector access still misses (mis-aligned).
        let p = c.probe(&Access::vector_read(LineKey::new(0, Orientation::Col, 2), 0));
        assert!(!p.hit, "vector hits require the correctly aligned block");
    }

    #[test]
    fn clean_duplicates_may_coexist() {
        let mut c = cache(SetMapping::DifferentSet);
        let row = LineKey::new(0, Orientation::Row, 2);
        let col = LineKey::new(0, Orientation::Col, 6);
        c.fill_collect(row, 0);
        let wbs = c.fill_collect(col, 0);
        assert!(wbs.is_empty(), "clean duplication needs no writeback");
        assert!(c.contains_line(&row) && c.contains_line(&col));
        assert_eq!(c.stats().duplications, 1);
    }

    #[test]
    fn write_evicts_clean_duplicate() {
        let mut c = cache(SetMapping::DifferentSet);
        let row = LineKey::new(0, Orientation::Row, 2);
        let col = LineKey::new(0, Orientation::Col, 6);
        c.fill_collect(row, 0);
        c.fill_collect(col, 0);
        // Write the shared word through the row copy.
        let shared = WordAddr::from_tile_coords(0, 2, 6);
        let p = c.probe(&Access::scalar_write(shared, Orientation::Row, 0));
        assert!(p.hit);
        assert!(p.writebacks.is_empty(), "clean duplicate is dropped silently");
        assert!(!c.contains_line(&col), "duplicate evicted so the write is sole-copy");
        assert!(c.contains_line(&row));
        assert_eq!(c.stats().dup_evictions, 1);
    }

    #[test]
    fn write_to_dirty_duplicate_forces_writeback() {
        let mut c = cache(SetMapping::DifferentSet);
        let row = LineKey::new(0, Orientation::Row, 2);
        let col = LineKey::new(0, Orientation::Col, 6);
        c.fill_collect(col, 0);
        // Dirty the column copy.
        let shared = WordAddr::from_tile_coords(0, 2, 6);
        assert!(c.probe(&Access::scalar_write(shared, Orientation::Col, 0)).hit);
        // Bring in the row line (read duplicate): dirty word propagates back.
        let wbs = c.fill_collect(row, 0);
        assert_eq!(wbs.len(), 1);
        assert_eq!(wbs[0].line, col);
        assert!(c.contains_line(&col), "read-to-duplicate cleans, not evicts");
        // Now write through the row copy: the (clean) column copy is evicted.
        let p = c.probe(&Access::scalar_write(shared, Orientation::Row, 0));
        assert!(p.hit);
        assert!(!c.contains_line(&col));
    }

    #[test]
    fn fill_with_modified_words_evicts_dirty_intersections() {
        let mut c = cache(SetMapping::DifferentSet);
        let col = LineKey::new(0, Orientation::Col, 6);
        c.fill_collect(col, 0);
        let shared = WordAddr::from_tile_coords(0, 2, 6);
        c.probe(&Access::scalar_write(shared, Orientation::Col, 0));
        // Write-allocate fill of the intersecting row line, word 6 dirty.
        let wbs = c.fill_collect(LineKey::new(0, Orientation::Row, 2), 1 << 6);
        assert_eq!(wbs.len(), 1, "dirty duplicate written back");
        assert_eq!(wbs[0].line, col);
        assert!(!c.contains_line(&col), "write-to-duplicate evicts");
    }

    #[test]
    fn vector_write_hit_evicts_all_intersecting_lines() {
        let mut c = cache(SetMapping::SameSet);
        let row = LineKey::new(0, Orientation::Row, 2);
        c.fill_collect(row, 0);
        for cidx in [1u8, 4, 7] {
            c.fill_collect(LineKey::new(0, Orientation::Col, cidx), 0);
        }
        let p = c.probe(&Access::vector_write(row, 0));
        assert!(p.hit);
        for cidx in [1u8, 4, 7] {
            assert!(!c.contains_line(&LineKey::new(0, Orientation::Col, cidx)));
        }
    }

    #[test]
    fn different_set_vector_miss_charges_eight_checks() {
        let mut c = cache(SetMapping::DifferentSet);
        let p = c.probe(&Access::vector_read(LineKey::new(0, Orientation::Row, 0), 0));
        assert_eq!(p.extra_tag_accesses, 8);
        let mut c = cache(SetMapping::SameSet);
        let p = c.probe(&Access::vector_read(LineKey::new(0, Orientation::Row, 0), 0));
        assert_eq!(p.extra_tag_accesses, 0);
    }

    #[test]
    fn eviction_writes_back_only_dirty_words() {
        let mut c = cache(SetMapping::DifferentSet);
        let line = LineKey::new(0, Orientation::Row, 0);
        c.fill_collect(line, 0);
        c.probe(&Access::scalar_write(line.word_at(1), Orientation::Row, 0));
        let wbs = c.flush_collect();
        assert_eq!(wbs.len(), 1);
        assert_eq!(wbs[0].dirty, 0b10);
        assert_eq!(wbs[0].words(), 1, "per-word dirty bits avoid false sharing");
    }

    #[test]
    fn misoriented_scalar_write_modifies_other_copy() {
        let mut c = cache(SetMapping::DifferentSet);
        let col = LineKey::new(0, Orientation::Col, 6);
        c.fill_collect(col, 0);
        let shared = WordAddr::from_tile_coords(0, 2, 6);
        // Row-preferring write, but only the column copy exists → hit there.
        let p = c.probe(&Access::scalar_write(shared, Orientation::Row, 0));
        assert!(p.hit);
        assert_eq!(c.stats().misoriented_hits, 1);
        let wbs = c.flush_collect();
        assert_eq!(wbs.len(), 1);
        assert_eq!(wbs[0].line, col);
    }

    #[test]
    fn occupancy_tracks_both_orientations() {
        let mut c = cache(SetMapping::DifferentSet);
        c.fill_collect(LineKey::new(0, Orientation::Row, 0), 0);
        c.fill_collect(LineKey::new(1, Orientation::Col, 0), 0);
        c.fill_collect(LineKey::new(2, Orientation::Col, 1), 0);
        assert_eq!(c.occupancy(), (1, 2, 64));
        c.flush_collect();
        assert_eq!(c.occupancy(), (0, 0, 64));
    }

    #[test]
    fn rows_only_miss_then_hit_after_fill() {
        let mut c = rows_only();
        let acc = Access::scalar_read(WordAddr::from_tile_coords(0, 1, 2), Orientation::Row, 0);
        let p = c.probe(&acc);
        assert!(!p.hit);
        assert_eq!(p.fills, vec![LineKey::new(0, Orientation::Row, 1)]);
        assert!(c.fill_collect(p.fills[0], 0).is_empty());
        assert!(c.probe(&acc).hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn rows_only_column_scalar_access_fetches_row_line() {
        let mut c = rows_only();
        let acc = Access::scalar_read(WordAddr::from_tile_coords(3, 4, 5), Orientation::Col, 0);
        let p = c.probe(&acc);
        assert_eq!(p.fills, vec![LineKey::new(3, Orientation::Row, 4)]);
        assert_eq!(p.extra_tag_accesses, 0, "no other orientation to check");
        c.fill_collect(p.fills[0], 0);
        // The row line now serves the column scalar: an ordinary hit,
        // still classified as a column scalar.
        assert!(c.probe(&acc).hit);
        assert_eq!(c.stats().col_scalar, 2);
        assert_eq!(c.stats().misoriented_hits, 0);
    }

    #[test]
    fn rows_only_write_marks_word_dirty_and_eviction_writes_back() {
        let mut c = rows_only();
        let line = LineKey::new(0, Orientation::Row, 0);
        c.fill_collect(line, 0);
        let w = Access::scalar_write(line.word_at(3), Orientation::Row, 0);
        assert!(c.probe(&w).hit);
        // Evict by filling 4 conflicting lines into the same set (16 sets:
        // row lines 128 line-frames apart conflict).
        let mut wbs = Vec::new();
        for k in 1..=4u64 {
            // Same set: tile*8+idx ≡ 0 mod 16 → tile = 2k.
            c.fill(LineKey::new(2 * k, Orientation::Row, 0), 0, &mut wbs);
        }
        assert_eq!(wbs.len(), 1);
        assert_eq!(wbs[0].line, line);
        assert_eq!(wbs[0].dirty, 0b1000);
    }

    #[test]
    fn rows_only_vector_row_write_dirties_whole_line() {
        let mut c = rows_only();
        let line = LineKey::new(1, Orientation::Row, 2);
        c.fill_collect(line, 0);
        assert!(c.probe(&Access::vector_write(line, 0)).hit);
        let wbs = c.flush_collect();
        assert_eq!(wbs.len(), 1);
        assert_eq!(wbs[0].dirty, 0xFF);
    }

    #[test]
    #[should_panic(expected = "column vector access")]
    fn rows_only_column_vector_access_is_rejected() {
        let mut c = rows_only();
        let _ = c.probe(&Access::vector_read(LineKey::new(0, Orientation::Col, 0), 0));
    }

    #[test]
    fn rows_only_absorb_writeback_updates_resident_line() {
        let mut c = rows_only();
        let line = LineKey::new(0, Orientation::Row, 0);
        c.fill_collect(line, 0);
        assert!(c.absorb_collect(&Writeback { line, dirty: 0x0F }).is_some());
        let wbs = c.flush_collect();
        assert_eq!(wbs[0].dirty, 0x0F);
        // Absent line: not absorbed.
        assert!(c.absorb_collect(&Writeback { line, dirty: 0x01 }).is_none());
        // A column line is never resident, so its writeback is refused.
        let col = LineKey::new(0, Orientation::Col, 0);
        assert!(c.absorb_collect(&Writeback { line: col, dirty: 0x01 }).is_none());
    }

    #[test]
    fn rows_only_occupancy_counts_lines() {
        let mut c = rows_only();
        assert_eq!(c.occupancy(), (0, 0, 64));
        c.fill_collect(LineKey::new(0, Orientation::Row, 0), 0);
        c.fill_collect(LineKey::new(0, Orientation::Row, 1), 0);
        assert_eq!(c.occupancy(), (2, 0, 64));
    }

    #[test]
    fn rows_only_flush_leaves_cache_empty_but_keeps_stats() {
        let mut c = rows_only();
        let acc = Access::scalar_read(WordAddr::from_tile_coords(0, 0, 0), Orientation::Row, 0);
        c.probe(&acc);
        c.fill_collect(LineKey::new(0, Orientation::Row, 0), 0xFF);
        let wbs = c.flush_collect();
        assert_eq!(wbs.len(), 1);
        assert_eq!(c.occupancy().0, 0);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().writebacks_out, 0, "rows-only levels do not count writebacks_out");
    }
}

//! Design 0: the physically and logically 1-D baseline cache.
//!
//! A conventional set-associative writeback cache of 64-byte row lines.
//! Column-preferring *scalar* accesses are legal (the preference bit is
//! simply ignored: the containing row line is fetched), which is how the
//! paper's baseline serves column access patterns — one row fetch per word.
//! Column *vector* accesses are impossible on this organization; the
//! compiler lowers them to eight scalars when targeting a 1-D hierarchy.

use crate::config::CacheConfig;
use crate::level::{Access, AccessWidth, CacheLevel, Probe, Writeback};
use crate::set_array::{Filled, SetArray};
use crate::stats::CacheStats;
use mda_mem::{LineKey, Orientation};

/// Per-line metadata: a dirty bit per word (8 words per line).
#[derive(Debug, Clone, Copy, Default)]
struct LineMeta {
    dirty: u8,
}

/// The baseline 1P1L cache.
#[derive(Debug, Clone)]
pub struct Cache1P1L {
    config: CacheConfig,
    array: SetArray<LineKey, LineMeta>,
    stats: CacheStats,
}

impl Cache1P1L {
    /// Builds a 1P1L level from `config`.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn new(config: CacheConfig) -> Cache1P1L {
        if let Err(msg) = config.validate() {
            // mda-lint: allow(lib-unwrap): documented `# Panics` contract rejecting invalid configs
            panic!("invalid CacheConfig: {msg}");
        }
        let array = SetArray::new(config.line_sets(), config.assoc);
        Cache1P1L { config, array, stats: CacheStats::default() }
    }

    fn set_of(&self, line: &LineKey) -> usize {
        debug_assert_eq!(line.orient, Orientation::Row);
        self.array.set_index(line.tile * 8 + u64::from(line.idx))
    }

    /// The row line a given access resolves to on this organization.
    fn target_line(acc: &Access) -> LineKey {
        match (acc.width, acc.orient) {
            (AccessWidth::Vector, Orientation::Col) => {
                // mda-lint: allow(lib-unwrap): documented API contract; the compiler never emits column vectors for 1P1L
                panic!(
                    "column vector access reached a 1P1L cache; the compiler \
                     must lower these to scalars for 1-D hierarchies"
                )
            }
            (AccessWidth::Vector, Orientation::Row) => acc.preferred_line(),
            (AccessWidth::Scalar, _) => LineKey::containing(acc.word, Orientation::Row),
        }
    }

    fn wb(line: LineKey, meta: LineMeta) -> Option<Writeback> {
        (meta.dirty != 0).then_some(Writeback { line, dirty: meta.dirty })
    }
}

impl CacheLevel for Cache1P1L {
    fn probe_into(&mut self, acc: &Access, out: &mut Probe) {
        out.reset();
        let line = Self::target_line(acc);
        let set = self.set_of(&line);
        let hit = if let Some(meta) = self.array.get_mut(set, line) {
            if acc.is_write {
                for w in acc.words() {
                    // mda-lint: allow(lib-unwrap): geometric invariant; acc.words() stay within the target line
                    let off = line.offset_of(w).expect("access word within target line");
                    meta.dirty |= 1 << off;
                }
            }
            true
        } else {
            false
        };
        self.stats.note_access(acc, hit);
        if !hit {
            out.hit = false;
            out.fills.push(line);
        }
    }

    fn fill(&mut self, line: LineKey, dirty: u8, out: &mut Vec<Writeback>) {
        debug_assert_eq!(line.orient, Orientation::Row, "1P1L holds row lines only");
        let set = self.set_of(&line);
        match self.array.fill(set, line, LineMeta { dirty }) {
            Filled::Hit(meta) => meta.dirty |= dirty,
            Filled::Inserted(victim) => {
                self.stats.demand_fills += 1;
                if let Some((vk, vm)) = victim {
                    out.extend(Self::wb(vk, vm));
                }
            }
        }
    }

    fn absorb_writeback(&mut self, wb: &Writeback, _cascades: &mut Vec<Writeback>) -> bool {
        // A column-oriented writeback from a 2-D upper level cannot be
        // absorbed by a 1-D array; the hierarchy re-orients it first.
        if wb.line.orient != Orientation::Row {
            return false;
        }
        let set = self.set_of(&wb.line);
        match self.array.get_mut(set, wb.line) {
            Some(meta) => {
                meta.dirty |= wb.dirty;
                true
            }
            None => false,
        }
    }

    fn contains_line(&self, line: &LineKey) -> bool {
        line.orient == Orientation::Row && self.array.peek(self.set_of(line), *line).is_some()
    }

    fn occupancy(&self) -> (usize, usize, usize) {
        (self.array.len(), 0, self.config.line_frames())
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
        self.array.drain_all(|_set, key, meta| out.extend(Self::wb(key, meta)));
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
    use mda_mem::WordAddr;

    fn small() -> Cache1P1L {
        // 4 KiB, 4-way: 16 sets.
        let mut cfg = CacheConfig::l1_32k();
        cfg.size_bytes = 4096;
        Cache1P1L::new(cfg)
    }

    #[test]
    fn miss_then_hit_after_fill() {
        let mut c = small();
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
    fn column_scalar_access_fetches_row_line() {
        let mut c = small();
        let acc = Access::scalar_read(WordAddr::from_tile_coords(3, 4, 5), Orientation::Col, 0);
        let p = c.probe(&acc);
        assert_eq!(p.fills, vec![LineKey::new(3, Orientation::Row, 4)]);
    }

    #[test]
    fn write_marks_word_dirty_and_eviction_writes_back() {
        let mut c = small();
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
    fn vector_row_write_dirties_whole_line() {
        let mut c = small();
        let line = LineKey::new(1, Orientation::Row, 2);
        c.fill_collect(line, 0);
        assert!(c.probe(&Access::vector_write(line, 0)).hit);
        let wbs = c.flush_collect();
        assert_eq!(wbs.len(), 1);
        assert_eq!(wbs[0].dirty, 0xFF);
    }

    #[test]
    #[should_panic(expected = "column vector access")]
    fn column_vector_access_is_rejected() {
        let mut c = small();
        let _ = c.probe(&Access::vector_read(LineKey::new(0, Orientation::Col, 0), 0));
    }

    #[test]
    fn absorb_writeback_updates_resident_line() {
        let mut c = small();
        let line = LineKey::new(0, Orientation::Row, 0);
        c.fill_collect(line, 0);
        assert!(c.absorb_collect(&Writeback { line, dirty: 0x0F }).is_some());
        let wbs = c.flush_collect();
        assert_eq!(wbs[0].dirty, 0x0F);
        // Absent line: not absorbed.
        assert!(c.absorb_collect(&Writeback { line, dirty: 0x01 }).is_none());
    }

    #[test]
    fn occupancy_counts_lines() {
        let mut c = small();
        assert_eq!(c.occupancy(), (0, 0, 64));
        c.fill_collect(LineKey::new(0, Orientation::Row, 0), 0);
        c.fill_collect(LineKey::new(0, Orientation::Row, 1), 0);
        assert_eq!(c.occupancy(), (2, 0, 64));
    }

    #[test]
    fn flush_leaves_cache_empty_but_keeps_stats() {
        let mut c = small();
        let acc = Access::scalar_read(WordAddr::from_tile_coords(0, 0, 0), Orientation::Row, 0);
        c.probe(&acc);
        c.fill_collect(LineKey::new(0, Orientation::Row, 0), 0xFF);
        let wbs = c.flush_collect();
        assert_eq!(wbs.len(), 1);
        assert_eq!(c.occupancy().0, 0);
        assert_eq!(c.stats().misses, 1);
    }
}

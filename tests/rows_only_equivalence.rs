//! Differential tests of the two rows-only modes: seeded sequences of
//! demand probes, fills, writebacks, `contains_line` and `flush` are
//! replayed through `Cache2P2L::rows_only` and the original stand-alone
//! `Cache2P1L`, and through `Cache1P2L::rows_only` and the original
//! stand-alone `Cache1P1L` (both kept below, verbatim, as oracles). Every
//! probe result, every writeback (in order), the statistics, the occupancy
//! and the resident-line walk must agree after every call.
//!
//! The sequences honour the two contracts of a logically 1-D level: no
//! column-vector access (checked separately: both panic alike) and no
//! column-line fill. Column-line writebacks are offered, and must be
//! refused by both.

mod common;

use common::Rng;
use mda_cache::{
    Access, AccessWidth, Cache1P2L, Cache2P2L, CacheConfig, CacheLevel, CacheLevelExt, Probe,
    Writeback,
};
use mda_mem::{LineKey, Orientation, WordAddr};
use std::panic::{self, AssertUnwindSafe};

/// The stand-alone 2P1L cache this crate shipped before 2P1L became a
/// mode of `Cache2P2L`.
mod oracle_2p1l {
    use mda_cache::level::{Access, AccessWidth, CacheLevel, Probe, Writeback};
    use mda_cache::set_array::{Filled, SetArray};
    use mda_cache::{CacheConfig, CacheStats};
    use mda_mem::{LineKey, Orientation, TileId, TILE_LINES};

    /// Per-block metadata: presence and dirtiness per row line only.
    #[derive(Debug, Clone, Copy, Default)]
    struct TileMeta {
        row_valid: u8,
        row_dirty: u8,
    }

    /// The physically 2-D, logically 1-D cache.
    #[derive(Debug, Clone)]
    pub struct Cache2P1L {
        config: CacheConfig,
        array: SetArray<TileId, TileMeta>,
        stats: CacheStats,
    }

    impl Cache2P1L {
        /// Builds a 2P1L level from `config`.
        ///
        /// # Panics
        /// Panics if the configuration is invalid or smaller than one 512-byte
        /// block per set.
        pub fn new(config: CacheConfig) -> Cache2P1L {
            if let Err(msg) = config.validate() {
                panic!("invalid CacheConfig: {msg}");
            }
            assert!(config.tile_sets() > 0, "capacity too small for 512-byte blocks");
            let array = SetArray::new(config.tile_sets(), config.assoc);
            Cache2P1L { config, array, stats: CacheStats::default() }
        }

        fn set_of(&self, tile: TileId) -> usize {
            self.array.set_index(tile)
        }

        /// The row line an access maps to (column vectors are impossible on a
        /// logically 1-D organization).
        fn target_line(acc: &Access) -> LineKey {
            match (acc.width, acc.orient) {
                (AccessWidth::Vector, Orientation::Col) => panic!(
                    "column vector access reached a 2P1L cache; the compiler \
                     must lower these to scalars for logically 1-D hierarchies"
                ),
                (AccessWidth::Vector, Orientation::Row) => acc.preferred_line(),
                (AccessWidth::Scalar, _) => LineKey::containing(acc.word, Orientation::Row),
            }
        }

        /// Appends the dirty rows of an evicted block to `out`, returning how
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
            }
            n
        }
    }

    impl CacheLevel for Cache2P1L {
        fn probe_into(&mut self, acc: &Access, out: &mut Probe) {
            out.reset();
            let line = Self::target_line(acc);
            let set = self.set_of(line.tile);
            let hit = match self.array.get_mut(set, line.tile) {
                Some(meta) if meta.row_valid & (1 << line.idx) != 0 => {
                    if acc.is_write {
                        meta.row_dirty |= 1 << line.idx;
                    }
                    true
                }
                _ => false,
            };
            self.stats.note_access(acc, hit);
            if !hit {
                out.hit = false;
                out.fills.push(line);
            }
        }

        fn fill(&mut self, line: LineKey, dirty: u8, out: &mut Vec<Writeback>) {
            debug_assert_eq!(line.orient, Orientation::Row, "2P1L stores row lines only");
            let set = self.set_of(line.tile);
            if let Some(meta) = self.array.get_mut(set, line.tile) {
                meta.row_valid |= 1 << line.idx;
                if dirty != 0 {
                    meta.row_dirty |= 1 << line.idx;
                }
                return;
            }
            self.stats.demand_fills += 1;
            let meta = TileMeta {
                row_valid: 1 << line.idx,
                row_dirty: if dirty != 0 { 1 << line.idx } else { 0 },
            };
            if let Filled::Inserted(Some((victim, vm))) = self.array.fill(set, line.tile, meta) {
                self.stats.writebacks_out += Self::push_writebacks(victim, &vm, out);
            }
        }

        fn absorb_writeback(&mut self, wb: &Writeback, _cascades: &mut Vec<Writeback>) -> bool {
            if wb.line.orient != Orientation::Row {
                return false;
            }
            let set = self.set_of(wb.line.tile);
            match self.array.get_mut(set, wb.line.tile) {
                Some(meta) => {
                    meta.row_valid |= 1 << wb.line.idx;
                    meta.row_dirty |= 1 << wb.line.idx;
                    true
                }
                None => false,
            }
        }

        fn contains_line(&self, line: &LineKey) -> bool {
            line.orient == Orientation::Row
                && self
                    .array
                    .peek(self.set_of(line.tile), line.tile)
                    .is_some_and(|m| m.row_valid & (1 << line.idx) != 0)
        }

        fn occupancy(&self) -> (usize, usize, usize) {
            let rows = self.array.iter().map(|(_, m)| m.row_valid.count_ones() as usize).sum();
            (rows, 0, self.config.line_frames())
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
            let Cache2P1L { array, stats, .. } = self;
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
                }
            }
        }
    }
}

/// The stand-alone 1P1L cache this crate shipped before 1P1L became the
/// rows-only mode of `Cache1P2L`.
mod oracle_1p1l {
    use mda_cache::level::{Access, AccessWidth, CacheLevel, Probe, Writeback};
    use mda_cache::set_array::{Filled, SetArray};
    use mda_cache::{CacheConfig, CacheStats};
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
}

/// A row or column preference, each half the time.
fn orient(rng: &mut Rng) -> Orientation {
    if rng.chance(50) {
        Orientation::Row
    } else {
        Orientation::Col
    }
}

/// How often each interesting event was exercised, so a generator change
/// that stops reaching one fails loudly instead of testing less.
#[derive(Debug, Default)]
struct Coverage {
    row_scalar_hits: u64,
    col_scalar_hits: u64,
    vector_hits: u64,
    write_hits: u64,
    misses: u64,
    eviction_writebacks: u64,
    absorbed: u64,
    absorb_refused_absent: u64,
    absorb_refused_column: u64,
    contains_true: u64,
    flush_writebacks: u64,
}

/// A demand access of any kind a logically 1-D hierarchy issues: row or
/// column scalars and row vectors, reads or writes.
fn random_access(rng: &mut Rng, tiles: u64) -> Access {
    let tile = rng.below(tiles);
    let (r, c) = (rng.below(8) as u8, rng.below(8) as u8);
    let word = WordAddr::from_tile_coords(tile, r, c);
    let write = rng.chance(35);
    if rng.chance(30) {
        let line = LineKey::new(tile, Orientation::Row, r);
        if write {
            Access::vector_write(line, 0)
        } else {
            Access::vector_read(line, 0)
        }
    } else if write {
        Access::scalar_write(word, orient(rng), 0)
    } else {
        Access::scalar_read(word, orient(rng), 0)
    }
}

fn random_row_line(rng: &mut Rng, tiles: u64) -> LineKey {
    LineKey::new(rng.below(tiles), Orientation::Row, rng.below(8) as u8)
}

/// Replays one seeded sequence of `ops` calls through the mode under test
/// (`new`) and the cache it replaced (`old`).
fn replay(
    seed: u64,
    new: &mut impl CacheLevel,
    old: &mut impl CacheLevel,
    tiles: u64,
    ops: usize,
    cov: &mut Coverage,
) {
    let mut rng = Rng(seed);
    let (mut new_probe, mut old_probe) = (Probe::hit(), Probe::hit());
    let (mut new_wbs, mut old_wbs) = (Vec::<Writeback>::new(), Vec::<Writeback>::new());

    for step in 0..ops {
        let ctx = |what: &str| format!("seed {seed} step {step}: {what}");
        new_wbs.clear();
        old_wbs.clear();
        let roll = rng.below(100);
        match roll {
            // A demand access through the hierarchy's protocol: probe, and
            // on most misses write-allocate the demand line.
            0..=59 => {
                let acc = random_access(&mut rng, tiles);
                new.probe_into(&acc, &mut new_probe);
                old.probe_into(&acc, &mut old_probe);
                assert_eq!(new_probe, old_probe, "{}", ctx("probe"));
                if new_probe.hit {
                    match (acc.width, acc.orient) {
                        (AccessWidth::Vector, _) => cov.vector_hits += 1,
                        (_, Orientation::Row) => cov.row_scalar_hits += 1,
                        (_, Orientation::Col) => cov.col_scalar_hits += 1,
                    }
                    cov.write_hits += u64::from(acc.is_write);
                } else {
                    cov.misses += 1;
                    if rng.chance(90) {
                        let line = new_probe.fills[0];
                        let dirty = match (acc.is_write, acc.width) {
                            (false, _) => 0,
                            (true, AccessWidth::Vector) => 0xFF,
                            (true, AccessWidth::Scalar) => {
                                1 << line.offset_of(acc.word).expect("fill line holds the word")
                            }
                        };
                        new.fill(line, dirty, &mut new_wbs);
                        old.fill(line, dirty, &mut old_wbs);
                    }
                }
            }
            // A fill without a probe (prefetch-like or from a writeback
            // write-allocate), possibly into a resident block.
            60..=71 => {
                let line = random_row_line(&mut rng, tiles);
                let dirty = if rng.chance(40) { rng.below(256) as u8 } else { 0 };
                new.fill(line, dirty, &mut new_wbs);
                old.fill(line, dirty, &mut old_wbs);
            }
            // A writeback from the level above, of either orientation.
            72..=84 => {
                let line = LineKey::new(rng.below(tiles), orient(&mut rng), rng.below(8) as u8);
                let wb = Writeback { line, dirty: 1 | rng.below(256) as u8 };
                let got = new.absorb_writeback(&wb, &mut new_wbs);
                let want = old.absorb_writeback(&wb, &mut old_wbs);
                assert_eq!(got, want, "{}", ctx("absorb_writeback"));
                match (want, line.orient) {
                    (true, _) => cov.absorbed += 1,
                    (false, Orientation::Row) => cov.absorb_refused_absent += 1,
                    (false, Orientation::Col) => cov.absorb_refused_column += 1,
                }
            }
            85..=98 => {
                let line = LineKey::new(rng.below(tiles), orient(&mut rng), rng.below(8) as u8);
                let want = old.contains_line(&line);
                assert_eq!(new.contains_line(&line), want, "{}", ctx("contains_line"));
                cov.contains_true += u64::from(want);
            }
            _ => {
                new.flush(&mut new_wbs);
                old.flush(&mut old_wbs);
                cov.flush_writebacks += old_wbs.len() as u64;
            }
        }
        assert_eq!(new_wbs, old_wbs, "{}", ctx("writebacks"));
        if roll < 99 {
            // Outside a flush, only an eviction emits writebacks.
            cov.eviction_writebacks += old_wbs.len() as u64;
        }
        assert_eq!(new.stats(), old.stats(), "{}", ctx("stats"));
        assert_eq!(new.occupancy(), old.occupancy(), "{}", ctx("occupancy"));
        assert_eq!(new.lines(), old.lines(), "{}", ctx("for_each_line"));
    }
}

/// Replays twelve seeded sequences per `(config, tiles)` shape through
/// fresh pairs built by `pair`, and fails unless every kind of event was
/// exercised.
fn replay_shapes<N: CacheLevel, O: CacheLevel>(
    shapes: [(CacheConfig, u64); 2],
    pair: fn(CacheConfig) -> (N, O),
) {
    for (cfg, tiles) in shapes {
        let mut cov = Coverage::default();
        for seed in 0..12u64 {
            let (mut new, mut old) = pair(cfg);
            replay(seed * 0x1000 + cfg.assoc as u64, &mut new, &mut old, tiles, 3000, &mut cov);
        }
        let counts = [
            cov.row_scalar_hits,
            cov.col_scalar_hits,
            cov.vector_hits,
            cov.write_hits,
            cov.misses,
            cov.eviction_writebacks,
            cov.absorbed,
            cov.absorb_refused_absent,
            cov.absorb_refused_column,
            cov.contains_true,
            cov.flush_writebacks,
        ];
        let (size, assoc) = (cfg.size_bytes, cfg.assoc);
        assert!(counts.iter().all(|&n| n > 0), "{size} B / {assoc}-way: unexercised: {cov:?}");
    }
}

#[test]
fn rows_only_2p2l_matches_the_standalone_2p1l_oracle() {
    // 16 KiB × 8 ways = 4 sets of 8 blocks; 4 KiB × 2 ways = 4 sets of 2.
    // Both see 4–16× more tiles than they hold, so blocks keep evicting.
    let shape = |size, assoc, tiles| {
        let mut cfg = CacheConfig::l3(size);
        cfg.assoc = assoc;
        (cfg, tiles)
    };
    replay_shapes([shape(16 * 1024, 8, 128), shape(4 * 1024, 2, 32)], |cfg| {
        (Cache2P2L::rows_only(cfg), oracle_2p1l::Cache2P1L::new(cfg))
    });
}

#[test]
fn rows_only_1p2l_matches_the_standalone_1p1l_oracle() {
    // 4 KiB × 4 ways = 16 sets of 4 lines; 1 KiB × 2 ways = 8 sets of 2.
    // They see 4× and 8× more row lines than they hold, so lines keep
    // evicting.
    let shape = |size, assoc, tiles| {
        let mut cfg = CacheConfig::l1_32k();
        cfg.size_bytes = size;
        cfg.assoc = assoc;
        (cfg, tiles)
    };
    replay_shapes([shape(4096, 4, 32), shape(1024, 2, 16)], |cfg| {
        (Cache1P2L::rows_only(cfg), oracle_1p1l::Cache1P1L::new(cfg))
    });
}

/// The panic payload's text, whichever string type it carries.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => payload.downcast::<&str>().map(|s| s.to_string()).unwrap_or_default(),
    }
}

/// Probes a column vector through both caches; both must panic with the
/// same message.
fn assert_panic_alike(new: &mut dyn CacheLevel, old: &mut dyn CacheLevel) {
    let acc = Access::vector_read(LineKey::new(0, Orientation::Col, 3), 0);
    let got = panic::catch_unwind(AssertUnwindSafe(|| new.probe_into(&acc, &mut Probe::hit())));
    let want = panic::catch_unwind(AssertUnwindSafe(|| old.probe_into(&acc, &mut Probe::hit())));
    let (got, want) = (got.expect_err("rows-only accepted"), want.expect_err("oracle accepted"));
    let want = panic_message(want);
    assert!(want.contains("column vector access"), "{want}");
    assert_eq!(panic_message(got), want);
}

#[test]
fn column_vectors_panic_alike() {
    let mut l3 = CacheConfig::l3(16 * 1024);
    l3.assoc = 8;
    assert_panic_alike(&mut Cache2P2L::rows_only(l3), &mut oracle_2p1l::Cache2P1L::new(l3));
    let l1 = CacheConfig::l1_32k();
    assert_panic_alike(&mut Cache1P2L::rows_only(l1), &mut oracle_1p1l::Cache1P1L::new(l1));
}

//! Differential test of the 2P1L taxonomy point: seeded sequences of
//! demand probes, fills, writebacks, `contains_line` and `flush` are
//! replayed through `Cache2P2L::rows_only` and through the original
//! stand-alone `Cache2P1L` (kept below, verbatim, as the oracle). Every
//! probe result, every writeback (in order), the statistics, the occupancy
//! and the resident-line walk must agree after every call.
//!
//! The sequences honour the two contracts of a logically 1-D level: no
//! column-vector access (checked separately: both panic alike) and no
//! column-line fill. Column-line writebacks are offered, and must be
//! refused by both.

use mda_cache::{
    Access, AccessWidth, Cache2P2L, CacheConfig, CacheLevel, CacheLevelExt, Probe, Writeback,
};
use mda_mem::{LineKey, Orientation, WordAddr};
use std::panic::{self, AssertUnwindSafe};

/// The stand-alone 2P1L cache this crate shipped before 2P1L became a
/// mode of `Cache2P2L`.
mod oracle {
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

/// SplitMix64: a small seeded generator so the sequences repeat exactly.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    fn orient(&mut self) -> Orientation {
        if self.chance(50) {
            Orientation::Row
        } else {
            Orientation::Col
        }
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
        Access::scalar_write(word, rng.orient(), 0)
    } else {
        Access::scalar_read(word, rng.orient(), 0)
    }
}

fn random_row_line(rng: &mut Rng, tiles: u64) -> LineKey {
    LineKey::new(rng.below(tiles), Orientation::Row, rng.below(8) as u8)
}

fn replay(seed: u64, cfg: CacheConfig, tiles: u64, ops: usize, cov: &mut Coverage) {
    let mut rng = Rng(seed);
    let mut new = Cache2P2L::rows_only(cfg);
    let mut old = oracle::Cache2P1L::new(cfg);
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
                let line = LineKey::new(rng.below(tiles), rng.orient(), rng.below(8) as u8);
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
                let line = LineKey::new(rng.below(tiles), rng.orient(), rng.below(8) as u8);
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

#[test]
fn rows_only_2p2l_matches_the_standalone_2p1l_oracle() {
    // 16 KiB × 8 ways = 4 sets of 8 blocks; 4 KiB × 2 ways = 4 sets of 2.
    // Both see 4–16× more tiles than they hold, so blocks keep evicting.
    let shapes = [(16 * 1024, 8, 128), (4 * 1024, 2, 32)];
    for (size, assoc, tiles) in shapes {
        let mut cfg = CacheConfig::l3(size);
        cfg.assoc = assoc;
        let mut cov = Coverage::default();
        for seed in 0..12u64 {
            replay(seed * 0x1000 + assoc as u64, cfg, tiles, 3000, &mut cov);
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
        assert!(counts.iter().all(|&n| n > 0), "{size} B / {assoc}-way: unexercised: {cov:?}");
    }
}

/// The panic payload's text, whichever string type it carries.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => payload.downcast::<&str>().map(|s| s.to_string()).unwrap_or_default(),
    }
}

#[test]
fn column_vectors_panic_alike() {
    let mut cfg = CacheConfig::l3(16 * 1024);
    cfg.assoc = 8;
    let acc = Access::vector_read(LineKey::new(0, Orientation::Col, 3), 0);
    let mut new = Cache2P2L::rows_only(cfg);
    let mut old = oracle::Cache2P1L::new(cfg);
    let got = panic::catch_unwind(AssertUnwindSafe(|| new.probe_into(&acc, &mut Probe::hit())));
    let want = panic::catch_unwind(AssertUnwindSafe(|| old.probe_into(&acc, &mut Probe::hit())));
    let (got, want) = (got.expect_err("rows-only accepted"), want.expect_err("oracle accepted"));
    let want = panic_message(want);
    assert!(want.contains("column vector access"), "{want}");
    assert_eq!(panic_message(got), want);
}

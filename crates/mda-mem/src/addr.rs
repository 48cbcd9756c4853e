// mda-lint: hot-path
//! Address geometry: words, lines, tiles and the Fig. 8 address decode.
//!
//! The paper fixes a 64-bit word, a 64-byte cache line (8 words) and a
//! 512-byte 2-D block ("tile": 8 rows × 8 columns × 8 bytes). Within a tile
//! the physical address bits are, from the LSB (paper Fig. 8):
//!
//! ```text
//! [2:0]  byte offset within a word
//! [5:3]  "row word offset"  — the word's position within a ROW line,
//!        i.e. the tile-local COLUMN coordinate `c`
//! [8:6]  "col word offset"  — the word's position within a COLUMN line,
//!        i.e. the tile-local ROW coordinate `r`
//! [..]   tile id (interleaved over channel/rank/bank, then word line and
//!        row/column select inside the bank)
//! ```
//!
//! Tiles are the unit of bank/rank/channel interleaving so that column
//! alignment inside a tile is never disturbed by the interleaving function.

/// Bytes per machine word (the paper uses 64-bit words).
pub const WORD_BYTES: u64 = 8;
/// Words per cache line.
pub const LINE_WORDS: usize = 8;
/// Bytes per cache line.
pub const LINE_BYTES: u64 = WORD_BYTES * LINE_WORDS as u64;
/// Row (and column) lines per 2-D block.
pub const TILE_LINES: usize = 8;
/// Bytes per 2-D block (8 rows × 8 columns × 8 B).
pub const TILE_BYTES: u64 = LINE_BYTES * TILE_LINES as u64;

/// The access/storage orientation of a cache line or memory transfer.
///
/// `Row` transfers move unit-stride words; `Col` transfers move the same
/// quantity of words with a fixed tile-height stride, served by the MDA
/// memory's column buffer in a single operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Orientation {
    /// Unit-stride (conventional) direction.
    #[default]
    Row,
    /// Fixed non-unit-stride direction, native to MDA memories.
    Col,
}

impl Orientation {
    /// The opposite orientation.
    #[inline]
    pub fn other(self) -> Orientation {
        match self {
            Orientation::Row => Orientation::Col,
            Orientation::Col => Orientation::Row,
        }
    }

    /// Both orientations, `Row` first (the paper's default preference).
    pub const BOTH: [Orientation; 2] = [Orientation::Row, Orientation::Col];
}

impl std::fmt::Display for Orientation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Orientation::Row => write!(f, "row"),
            Orientation::Col => write!(f, "col"),
        }
    }
}

/// Identifier of a 512-byte 2-D block in the physical address space.
pub type TileId = u64;

/// The largest tile id: the tile of the last word of the 64-bit address
/// space, `(1 << 55) - 1`.
pub const MAX_TILE: TileId = u64::MAX / TILE_BYTES;

/// A word-aligned physical address.
///
/// All memory operations in the workspace are expressed in terms of words;
/// the byte-offset bits `[2:0]` are always zero here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WordAddr(pub u64);

impl WordAddr {
    /// Builds a word address from a byte address, discarding byte-offset bits.
    #[inline]
    pub fn from_byte_addr(addr: u64) -> WordAddr {
        WordAddr(addr & !(WORD_BYTES - 1))
    }

    /// Builds the address of the word at tile-local coordinates `(r, c)`.
    ///
    /// # Panics
    /// Panics if `r` or `c` is outside `0..8`.
    #[inline]
    pub fn from_tile_coords(tile: TileId, r: u8, c: u8) -> WordAddr {
        assert!(r < TILE_LINES as u8 && c < TILE_LINES as u8);
        WordAddr(tile * TILE_BYTES + (r as u64) * LINE_BYTES + (c as u64) * WORD_BYTES)
    }

    /// The tile this word belongs to.
    #[inline]
    pub fn tile(self) -> TileId {
        self.0 / TILE_BYTES
    }

    /// Tile-local row coordinate `r` (bits `[8:6]`, the "col word offset").
    #[inline]
    pub fn row_in_tile(self) -> u8 {
        ((self.0 >> 6) & 0x7) as u8
    }

    /// Tile-local column coordinate `c` (bits `[5:3]`, the "row word offset").
    #[inline]
    pub fn col_in_tile(self) -> u8 {
        ((self.0 >> 3) & 0x7) as u8
    }

    /// The byte address of the word.
    #[inline]
    pub fn byte_addr(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for WordAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

/// Identity of one cache-line-sized transfer unit: a row or a column of a
/// tile.
///
/// A `Row` line with index `r` covers words `(tile, r, 0..8)`; a `Col` line
/// with index `c` covers words `(tile, 0..8, c)`. Lines of different
/// orientation within the same tile *intersect* in exactly one word, which is
/// the source of the duplication phenomena handled by the 1P2L cache policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct LineKey {
    /// The 2-D block the line belongs to.
    pub tile: TileId,
    /// Transfer orientation.
    pub orient: Orientation,
    /// Row index (for `Row`) or column index (for `Col`) within the tile.
    pub idx: u8,
}

impl LineKey {
    /// Creates a line key.
    ///
    /// # Panics
    /// Panics if `idx >= 8`.
    #[inline]
    pub fn new(tile: TileId, orient: Orientation, idx: u8) -> LineKey {
        assert!(idx < TILE_LINES as u8, "line index {idx} out of tile range");
        LineKey { tile, orient, idx }
    }

    /// The line of orientation `orient` containing `word`.
    #[inline]
    pub fn containing(word: WordAddr, orient: Orientation) -> LineKey {
        let idx = match orient {
            Orientation::Row => word.row_in_tile(),
            Orientation::Col => word.col_in_tile(),
        };
        LineKey { tile: word.tile(), orient, idx }
    }

    /// The line of the *other* orientation that intersects `self` at `word`.
    ///
    /// # Panics
    /// Panics (in debug builds) if `word` is not covered by `self`.
    #[inline]
    pub fn intersecting_at(&self, word: WordAddr) -> LineKey {
        debug_assert!(self.contains(word));
        LineKey::containing(word, self.orient.other())
    }

    /// Whether `word` is one of the eight words of this line.
    #[inline]
    pub fn contains(&self, word: WordAddr) -> bool {
        if word.tile() != self.tile {
            return false;
        }
        match self.orient {
            Orientation::Row => word.row_in_tile() == self.idx,
            Orientation::Col => word.col_in_tile() == self.idx,
        }
    }

    /// Position of `word` within the line (`0..8`), if covered.
    #[inline]
    pub fn offset_of(&self, word: WordAddr) -> Option<u8> {
        if !self.contains(word) {
            return None;
        }
        Some(match self.orient {
            Orientation::Row => word.col_in_tile(),
            Orientation::Col => word.row_in_tile(),
        })
    }

    /// The word at position `off` within the line.
    ///
    /// # Panics
    /// Panics if `off >= 8`.
    #[inline]
    pub fn word_at(&self, off: u8) -> WordAddr {
        match self.orient {
            Orientation::Row => WordAddr::from_tile_coords(self.tile, self.idx, off),
            Orientation::Col => WordAddr::from_tile_coords(self.tile, off, self.idx),
        }
    }

    /// Iterates over the eight words covered by the line.
    pub fn words(&self) -> impl Iterator<Item = WordAddr> + '_ {
        let this = *self;
        (0..TILE_LINES as u8).map(move |off| this.word_at(off))
    }

    /// Whether two lines share at least one word.
    ///
    /// Same-orientation lines overlap only when identical; cross-orientation
    /// lines overlap exactly when they belong to the same tile.
    #[inline]
    pub fn overlaps(&self, other: &LineKey) -> bool {
        if self.tile != other.tile {
            return false;
        }
        if self.orient == other.orient {
            self.idx == other.idx
        } else {
            true
        }
    }

    /// Byte address of the line's first word (used for set indexing).
    #[inline]
    pub fn base_addr(&self) -> u64 {
        self.word_at(0).byte_addr()
    }

    /// Packs the line as `tile << 4 | orient << 3 | idx` (orient 1 for
    /// columns), so two packed keys differ only in bit 3 exactly when they
    /// are lines of opposite orientation in one tile, and `key >> 3`
    /// identifies a (tile, orientation) pair. Every tile is at most
    /// [`MAX_TILE`], so every packed key is below `1 << 59`.
    #[inline]
    pub fn pack(&self) -> u64 {
        debug_assert!(self.tile <= MAX_TILE, "tile {} does not fit a packed line key", self.tile);
        let orient = u64::from(self.orient == Orientation::Col);
        self.tile << 4 | orient << 3 | u64::from(self.idx)
    }

    /// Inverse of [`LineKey::pack`].
    #[inline]
    pub fn unpack(key: u64) -> LineKey {
        debug_assert!(key >> 4 <= MAX_TILE, "{key:#x} is not a packed line key");
        let orient = if key >> 3 & 1 == 1 { Orientation::Col } else { Orientation::Row };
        LineKey { tile: key >> 4, orient, idx: (key & 7) as u8 }
    }
}

impl std::fmt::Display for LineKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tile {} {} {}", self.tile, self.orient, self.idx)
    }
}

/// The memory-side decode of a tile id (paper Fig. 8, right half).
///
/// Channel, rank and bank bits are taken from the least-significant tile-id
/// bits to maximize parallelism; the remaining bits select the physical
/// word-line group inside the bank. A column-aligned tile is the unit of
/// interleaving, so column alignment within a tile is never disturbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedAddr {
    /// Memory channel.
    pub channel: usize,
    /// Rank within the channel.
    pub rank: usize,
    /// Bank within the rank.
    pub bank: usize,
    /// Linear tile index local to the bank.
    pub tile_in_bank: u64,
}

impl DecodedAddr {
    /// Decodes `tile` with interleaving `tile : BK : RK : CH` (LSB first).
    ///
    /// The channel/rank/bank selection XOR-folds the high tile-id bits into
    /// the low ones (permutation-based interleaving, standard in memory
    /// controllers) so that power-of-two-strided walks — e.g. a column walk
    /// down a tile grid whose width is a multiple of the bank count — still
    /// spread across banks and channels instead of serializing on one bank.
    /// When the total bank count is a power of two the fold is a bijection
    /// within each bank-parallel block, so no two tiles alias to the same
    /// physical frame.
    pub fn decode(tile: TileId, channels: usize, ranks: usize, banks: usize) -> DecodedAddr {
        let par = (channels * ranks * banks) as u64;
        let bits = 64 - (par.max(2) - 1).leading_zeros();
        let folded = tile ^ (tile >> bits) ^ (tile >> (2 * bits));
        // The paper's geometry (4 channels × 1 rank × 8 banks) is all
        // powers of two, so the div/mod chain reduces to shifts and masks
        // on the per-request path; arbitrary geometries keep the general
        // form below.
        if channels.is_power_of_two() && ranks.is_power_of_two() && banks.is_power_of_two() {
            let ch_bits = channels.trailing_zeros();
            let rk_bits = ranks.trailing_zeros();
            let bk_bits = banks.trailing_zeros();
            let rest = folded >> ch_bits;
            return DecodedAddr {
                channel: (folded & (channels as u64 - 1)) as usize,
                rank: (rest & (ranks as u64 - 1)) as usize,
                bank: ((rest >> rk_bits) & (banks as u64 - 1)) as usize,
                tile_in_bank: tile >> (ch_bits + rk_bits + bk_bits),
            };
        }
        let channel = (folded % channels as u64) as usize;
        let rest = folded / channels as u64;
        let rank = (rest % ranks as u64) as usize;
        let bank = ((rest / ranks as u64) % banks as u64) as usize;
        DecodedAddr { channel, rank, bank, tile_in_bank: tile / par }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_addr_coords_round_trip() {
        for tile in [0u64, 1, 17, 1024] {
            for r in 0..8u8 {
                for c in 0..8u8 {
                    let w = WordAddr::from_tile_coords(tile, r, c);
                    assert_eq!(w.tile(), tile);
                    assert_eq!(w.row_in_tile(), r);
                    assert_eq!(w.col_in_tile(), c);
                }
            }
        }
    }

    #[test]
    fn row_line_covers_unit_stride_words() {
        let line = LineKey::new(5, Orientation::Row, 3);
        let words: Vec<u64> = line.words().map(|w| w.byte_addr()).collect();
        let base = 5 * TILE_BYTES + 3 * LINE_BYTES;
        let expect: Vec<u64> = (0..8).map(|c| base + c * WORD_BYTES).collect();
        assert_eq!(words, expect);
    }

    #[test]
    fn col_line_covers_line_stride_words() {
        let line = LineKey::new(5, Orientation::Col, 3);
        let words: Vec<u64> = line.words().map(|w| w.byte_addr()).collect();
        let base = 5 * TILE_BYTES + 3 * WORD_BYTES;
        let expect: Vec<u64> = (0..8).map(|r| base + r * LINE_BYTES).collect();
        assert_eq!(words, expect);
    }

    #[test]
    fn cross_orientation_lines_intersect_in_one_word() {
        let row = LineKey::new(9, Orientation::Row, 2);
        let col = LineKey::new(9, Orientation::Col, 6);
        let shared: Vec<WordAddr> = row.words().filter(|w| col.contains(*w)).collect();
        assert_eq!(shared.len(), 1);
        assert_eq!(shared[0], WordAddr::from_tile_coords(9, 2, 6));
        assert!(row.overlaps(&col));
    }

    #[test]
    fn same_orientation_lines_overlap_iff_identical() {
        let a = LineKey::new(4, Orientation::Row, 1);
        let b = LineKey::new(4, Orientation::Row, 2);
        assert!(!a.overlaps(&b));
        assert!(a.overlaps(&a));
        let other_tile = LineKey::new(5, Orientation::Col, 1);
        assert!(!a.overlaps(&other_tile));
    }

    #[test]
    fn containing_and_offset_agree() {
        let w = WordAddr::from_tile_coords(7, 4, 6);
        let row = LineKey::containing(w, Orientation::Row);
        assert_eq!(row, LineKey::new(7, Orientation::Row, 4));
        assert_eq!(row.offset_of(w), Some(6));
        let col = LineKey::containing(w, Orientation::Col);
        assert_eq!(col, LineKey::new(7, Orientation::Col, 6));
        assert_eq!(col.offset_of(w), Some(4));
        assert_eq!(row.intersecting_at(w), col);
    }

    #[test]
    fn decode_spreads_consecutive_tiles_over_channels() {
        let d0 = DecodedAddr::decode(0, 4, 1, 8);
        let d1 = DecodedAddr::decode(1, 4, 1, 8);
        let d4 = DecodedAddr::decode(4, 4, 1, 8);
        assert_eq!(d0.channel, 0);
        assert_eq!(d1.channel, 1);
        assert_eq!(d4.channel, 0);
        assert_eq!(d4.bank, 1);
    }

    #[test]
    fn pack_round_trips_every_orientation_and_index() {
        for tile in [0, 1, 0x1234_5678, MAX_TILE - 1, MAX_TILE] {
            for orient in Orientation::BOTH {
                for idx in 0..TILE_LINES as u8 {
                    let line = LineKey::new(tile, orient, idx);
                    let key = line.pack();
                    assert_eq!(LineKey::unpack(key), line);
                    assert!(key < 1 << 59);
                    assert_eq!(key >> 4, tile);
                    assert_eq!(key >> 3 & 1, u64::from(orient == Orientation::Col));
                    assert_eq!(key & 7, u64::from(idx));
                }
            }
        }
    }

    #[test]
    fn packing_is_injective_and_flags_cross_orientation_pairs() {
        let lines: Vec<LineKey> = [3, MAX_TILE]
            .into_iter()
            .flat_map(|t| Orientation::BOTH.map(|o| (t, o)))
            .flat_map(|(t, o)| (0..TILE_LINES as u8).map(move |i| LineKey::new(t, o, i)))
            .collect();
        for a in &lines {
            for b in &lines {
                assert_eq!(a.pack() == b.pack(), a == b);
                let cross = a.tile == b.tile && a.orient != b.orient;
                assert_eq!((a.pack() ^ b.pack()) >> 3 == 1, cross, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn the_last_word_of_memory_packs_below_bit_59() {
        let tile = WordAddr(u64::MAX).tile();
        assert_eq!(tile, MAX_TILE);
        assert_eq!(MAX_TILE, (1 << 55) - 1);
        let top = LineKey::new(tile, Orientation::Col, 7).pack();
        assert_eq!(top, (1 << 59) - 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "does not fit a packed line key")]
    fn packing_an_out_of_range_tile_is_caught() {
        let _ = LineKey::new(MAX_TILE + 1, Orientation::Row, 0).pack();
    }
}

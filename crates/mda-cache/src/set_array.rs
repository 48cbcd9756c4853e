// mda-lint: hot-path
//! Generic set-associative storage with true-LRU replacement.
//!
//! Both cache organizations share this container: `1P2L` (and its
//! rows-only 1P1L mode) uses it with [`mda_mem::LineKey`] keys and
//! per-line metadata, `2P2L` with tile ids and per-tile presence/dirty
//! bitmaps.
//!
//! The storage is **structure-of-arrays**: tag lookups scan a dense lane of
//! packed `u64` tags ([`PackedKey`]; an empty way holds a sentinel no key
//! packs to), recency updates touch only the
//! `stamps` lane, and metadata lives in its own `metas` lane. A live
//! counter keeps `len()` O(1).
//!
//! [`SetArray::fill`] is the one-scan fill: a single pass over the set
//! either finds the key (a hit: recency refreshed, the caller merges into
//! the metadata) or picks the way an insertion takes (the first free way,
//! else the LRU victim), so a fill no longer scans once to look up and
//! again to insert.

use mda_mem::{LineKey, TileId, MAX_TILE};
use std::marker::PhantomData;

/// The tag of an empty way. Tile ids are at most [`MAX_TILE`] and packed
/// line keys below `1 << 59`, so no key packs to it.
const PACKED_EMPTY: u64 = u64::MAX;

/// A key a [`SetArray`] stores as a packed `u64` tag. `pack` must be
/// injective, never return `u64::MAX` (the empty-way tag), and be undone
/// by `unpack`.
pub trait PackedKey: Copy {
    /// The key's tag.
    fn pack(self) -> u64;
    /// The key a tag was packed from.
    fn unpack(tag: u64) -> Self;
}

impl PackedKey for LineKey {
    #[inline]
    fn pack(self) -> u64 {
        LineKey::pack(&self)
    }

    #[inline]
    fn unpack(tag: u64) -> LineKey {
        LineKey::unpack(tag)
    }
}

/// Tile ids are their own tags: every tile id is at most [`MAX_TILE`].
impl PackedKey for TileId {
    #[inline]
    fn pack(self) -> u64 {
        debug_assert!(self <= MAX_TILE, "tile {self} is beyond the address space");
        self
    }

    #[inline]
    fn unpack(tag: u64) -> TileId {
        tag
    }
}

/// What [`SetArray::fill`] did.
#[derive(Debug)]
pub enum Filled<'a, K, M> {
    /// The key was resident; its recency is refreshed and the offered
    /// metadata was dropped, so the caller merges into the resident one.
    Hit(&'a mut M),
    /// The key was installed with the offered metadata, evicting (and
    /// returning) the LRU entry when the set was full.
    Inserted(Option<(K, M)>),
}

/// A set-associative array mapping keys of type `K` to metadata `M`.
#[derive(Debug, Clone)]
pub struct SetArray<K, M> {
    /// Tag lane: the packed key of an occupied way, `PACKED_EMPTY` for a
    /// free one.
    tags: Vec<u64>,
    /// Metadata lane; slots for unoccupied ways hold `M::default()`.
    metas: Vec<M>,
    /// LRU-stamp lane; stale for unoccupied ways.
    stamps: Vec<u64>,
    num_sets: usize,
    assoc: usize,
    clock: u64,
    live: usize,
    key: PhantomData<K>,
}

impl<K: PackedKey, M: Default> SetArray<K, M> {
    /// Creates an empty array of `num_sets` sets × `assoc` ways.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(num_sets: usize, assoc: usize) -> SetArray<K, M> {
        assert!(num_sets > 0 && assoc > 0, "sets and ways must be non-zero");
        let slots = num_sets * assoc;
        // mda-lint: allow(hot-path-alloc): construction-time only; steady state never allocates
        let mut metas = Vec::new();
        metas.resize_with(slots, M::default);
        SetArray {
            tags: vec![PACKED_EMPTY; slots],
            metas,
            stamps: vec![0; slots],
            num_sets,
            assoc,
            clock: 0,
            live: 0,
            key: PhantomData,
        }
    }

    /// Maps a placement key to its set index (`key % num_sets`).
    ///
    /// Every preset configuration has a power-of-two set count, so the
    /// modulo — a 20+-cycle `u64` division on the per-access hot path —
    /// strength-reduces to a mask; the division remains as the fallback
    /// for arbitrary geometries.
    #[inline]
    pub fn set_index(&self, key: u64) -> usize {
        if self.num_sets.is_power_of_two() {
            (key & (self.num_sets as u64 - 1)) as usize
        } else {
            (key % self.num_sets as u64) as usize
        }
    }

    fn set_range(&self, set: usize) -> std::ops::Range<usize> {
        debug_assert!(set < self.num_sets, "set index out of range");
        set * self.assoc..(set + 1) * self.assoc
    }

    #[inline]
    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        let range = self.set_range(set);
        let start = range.start;
        self.tags[range].iter().position(|&t| t == tag).map(|w| start + w)
    }

    /// One pass over `set`: `Ok(way)` when `tag` is resident, else
    /// `Err(way)` for the way a fill of it takes — the first free way, or
    /// in a full set the LRU victim (the first way with the minimal
    /// stamp).
    #[inline]
    fn locate(&self, set: usize, tag: u64) -> Result<usize, usize> {
        let range = self.set_range(set);
        let mut free = None;
        let mut victim = range.start;
        let mut victim_stamp = u64::MAX;
        for i in range {
            let t = self.tags[i];
            if t == tag {
                return Ok(i);
            }
            if t == PACKED_EMPTY {
                free = free.or(Some(i));
            } else if self.stamps[i] < victim_stamp {
                victim_stamp = self.stamps[i];
                victim = i;
            }
        }
        Err(free.unwrap_or(victim))
    }

    /// Installs `tag` with `meta` in way `i` at the current clock,
    /// returning the entry it displaced, if any.
    #[inline]
    fn install(&mut self, i: usize, tag: u64, meta: M) -> Option<(K, M)> {
        let old = std::mem::replace(&mut self.tags[i], tag);
        let old_meta = std::mem::replace(&mut self.metas[i], meta);
        self.stamps[i] = self.clock;
        if old == PACKED_EMPTY {
            self.live += 1;
            None
        } else {
            Some((K::unpack(old), old_meta))
        }
    }

    /// Looks up `key` in `set`, updating recency on hit.
    ///
    /// The LRU clock only advances on a hit: a miss leaves recency state
    /// untouched, so long miss streaks cannot skew the victim ordering.
    pub fn get_mut(&mut self, set: usize, key: K) -> Option<&mut M> {
        let i = self.find(set, key.pack())?;
        self.clock += 1;
        self.stamps[i] = self.clock;
        Some(&mut self.metas[i])
    }

    /// Looks up `key` in `set` without touching recency.
    pub fn peek(&self, set: usize, key: K) -> Option<&M> {
        self.find(set, key.pack()).map(|i| &self.metas[i])
    }

    /// Fills `key` into `set` in one scan: a resident key is a hit (recency
    /// refreshed, `meta` dropped); otherwise `key` is inserted with `meta`
    /// into the first free way or, on a full set, over the LRU entry, which
    /// is evicted and returned. Same outcome as [`SetArray::get_mut`]
    /// followed on a miss by an insertion.
    pub fn fill(&mut self, set: usize, key: K, meta: M) -> Filled<'_, K, M> {
        self.clock += 1;
        let tag = key.pack();
        match self.locate(set, tag) {
            Ok(i) => {
                self.stamps[i] = self.clock;
                Filled::Hit(&mut self.metas[i])
            }
            Err(i) => Filled::Inserted(self.install(i, tag, meta)),
        }
    }

    /// Removes `key` from `set`, returning its metadata.
    pub fn remove(&mut self, set: usize, key: K) -> Option<M> {
        let i = self.find(set, key.pack())?;
        self.tags[i] = PACKED_EMPTY;
        self.live -= 1;
        Some(std::mem::take(&mut self.metas[i]))
    }

    /// Empties the array, visiting every resident entry as
    /// `(set, key, meta)` in set order (way order within a set) — the
    /// allocation-free backbone of every `flush()` implementation.
    /// Statistics such as the LRU clock are preserved.
    pub fn drain_all(&mut self, mut f: impl FnMut(usize, K, M)) {
        for set in 0..self.num_sets {
            for i in self.set_range(set) {
                let tag = std::mem::replace(&mut self.tags[i], PACKED_EMPTY);
                if tag != PACKED_EMPTY {
                    self.live -= 1;
                    f(set, K::unpack(tag), std::mem::take(&mut self.metas[i]));
                }
            }
        }
    }

    /// Iterates over the `(key, meta)` pairs resident in `set`.
    pub fn iter_set(&self, set: usize) -> impl Iterator<Item = (K, &M)> {
        let range = self.set_range(set);
        Self::resident(&self.tags[range.clone()], &self.metas[range])
    }

    /// Iterates over every resident `(key, meta)` pair.
    pub fn iter(&self) -> impl Iterator<Item = (K, &M)> {
        Self::resident(&self.tags, &self.metas)
    }

    fn resident<'a>(tags: &'a [u64], metas: &'a [M]) -> impl Iterator<Item = (K, &'a M)> {
        tags.iter().zip(metas).filter(|(t, _)| **t != PACKED_EMPTY).map(|(t, m)| (K::unpack(*t), m))
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the array holds no entries.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mda_mem::{Orientation, WordAddr};

    /// Fills a key the caller knows is absent, returning the eviction.
    fn insert<M: Default>(
        a: &mut SetArray<u64, M>,
        set: usize,
        key: u64,
        meta: M,
    ) -> Option<(u64, M)> {
        match a.fill(set, key, meta) {
            Filled::Inserted(evicted) => evicted,
            Filled::Hit(_) => panic!("{key} was already resident"),
        }
    }

    #[test]
    fn insert_and_lookup() {
        let mut a: SetArray<u64, u8> = SetArray::new(4, 2);
        assert!(insert(&mut a, 1, 10, 0xA).is_none());
        assert_eq!(a.get_mut(1, 10).copied(), Some(0xA));
        assert_eq!(a.peek(1, 10).copied(), Some(0xA));
        assert!(a.get_mut(1, 11).is_none());
        assert!(a.get_mut(0, 10).is_none(), "other sets are independent");
    }

    #[test]
    fn lru_eviction_order() {
        let mut a: SetArray<u64, ()> = SetArray::new(1, 2);
        insert(&mut a, 0, 1, ());
        insert(&mut a, 0, 2, ());
        // Touch 1 so 2 becomes LRU.
        a.get_mut(0, 1);
        let evicted = insert(&mut a, 0, 3, ());
        assert_eq!(evicted, Some((2, ())));
        assert!(a.peek(0, 1).is_some());
        assert!(a.peek(0, 3).is_some());
    }

    #[test]
    fn miss_streaks_do_not_perturb_lru_victim_choice() {
        let mut a: SetArray<u64, ()> = SetArray::new(1, 2);
        insert(&mut a, 0, 1, ());
        insert(&mut a, 0, 2, ());
        // Touch 1 so 2 is LRU, then hammer the set with misses: dead
        // lookups must not advance the clock or reorder recency.
        a.get_mut(0, 1);
        let clock_sensitive_misses = 1000;
        for k in 0..clock_sensitive_misses {
            assert!(a.get_mut(0, 100 + k).is_none());
        }
        assert_eq!(insert(&mut a, 0, 3, ()), Some((2, ())), "2 stays the LRU victim");
        // After evicting 2, entry 1 (touched before the miss streak) is
        // older than 3 and must be the next victim.
        assert_eq!(insert(&mut a, 0, 4, ()), Some((1, ())));
    }

    #[test]
    fn refill_hits_and_refreshes_recency_without_eviction() {
        let mut a: SetArray<u64, u8> = SetArray::new(1, 2);
        insert(&mut a, 0, 7, 1);
        insert(&mut a, 0, 8, 2);
        match a.fill(0, 7, 4) {
            Filled::Hit(m) => *m |= 4,
            Filled::Inserted(_) => panic!("7 is resident"),
        }
        assert_eq!(a.peek(0, 7).copied(), Some(5), "the caller merged into the resident meta");
        assert_eq!(a.len(), 2);
        assert_eq!(insert(&mut a, 0, 9, 3), Some((8, 2)), "the hit made 7 most recent");
    }

    #[test]
    fn remove_frees_the_way() {
        let mut a: SetArray<u64, u8> = SetArray::new(1, 1);
        insert(&mut a, 0, 7, 1);
        assert_eq!(a.remove(0, 7), Some(1));
        assert!(a.is_empty());
        assert!(insert(&mut a, 0, 8, 2).is_none(), "freed way reused without eviction");
    }

    #[test]
    fn iter_set_sees_only_that_set() {
        let mut a: SetArray<u64, u8> = SetArray::new(2, 2);
        insert(&mut a, 0, 1, 10);
        insert(&mut a, 1, 2, 20);
        let set0: Vec<_> = a.iter_set(0).map(|(k, m)| (k, *m)).collect();
        assert_eq!(set0, vec![(1, 10)]);
        assert_eq!(a.iter().count(), 2);
    }

    #[test]
    fn drain_all_yields_set_order_and_empties() {
        let mut a: SetArray<u64, u8> = SetArray::new(2, 2);
        insert(&mut a, 1, 30, 3);
        insert(&mut a, 0, 10, 1);
        insert(&mut a, 0, 20, 2);
        let mut seen = Vec::new();
        a.drain_all(|set, k, m| seen.push((set, k, m)));
        assert_eq!(seen, vec![(0, 10, 1), (0, 20, 2), (1, 30, 3)]);
        assert!(a.is_empty());
        assert_eq!(a.iter().count(), 0);
        assert!(insert(&mut a, 0, 40, 4).is_none(), "ways free after drain");
    }

    #[test]
    fn no_key_packs_to_the_empty_tag() {
        let tile = WordAddr(u64::MAX).tile();
        assert!(PackedKey::pack(tile) < PACKED_EMPTY, "the last tile id");
        let top = LineKey::new(tile, Orientation::Col, 7);
        assert!(PackedKey::pack(top) < PACKED_EMPTY, "the last line");
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_assoc_panics() {
        let _: SetArray<u64, ()> = SetArray::new(4, 0);
    }
}

//! Differential test of the set array: seeded sequences of `get_mut`,
//! `peek`, the one-scan `fill`, `remove`, `drain_all` and `iter`
//! are replayed through `mda_cache::set_array::SetArray` (packed `u64` tags
//! with an empty sentinel) and through the original array with `Option<K>`
//! tag lanes (kept below as the oracle, where a fill is `get_mut` followed
//! on a miss by `insert`). Every return value, every eviction and the
//! resident count must agree after every call.
//!
//! The shapes cover line keys and tile-id keys, power-of-two and other set
//! counts, associativity 1 to 16, and the keys at both ends of the packed
//! range: tile 0 row 0 (which packs to 0) and the last tile of the address
//! space, `(1 << 55) - 1`.

mod common;

use common::Rng;
use mda_cache::set_array::{Filled, PackedKey, SetArray};
use mda_mem::{LineKey, Orientation, MAX_TILE};
use std::fmt::Debug;

/// The original array: `Option<K>` tag lanes, a fill scanning the set once
/// to look up and again to insert.
#[allow(dead_code)]
mod oracle {
    /// A set-associative array mapping keys of type `K` to metadata `M`.
    #[derive(Debug, Clone)]
    pub struct SetArray<K, M> {
        /// Tag lane: `Some(key)` marks an occupied way.
        keys: Vec<Option<K>>,
        /// Metadata lane; slots for unoccupied ways hold `M::default()`.
        metas: Vec<M>,
        /// LRU-stamp lane; stale for unoccupied ways.
        stamps: Vec<u64>,
        num_sets: usize,
        assoc: usize,
        clock: u64,
        live: usize,
    }

    impl<K: Copy + Eq, M: Default> SetArray<K, M> {
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
                keys: vec![None; slots],
                metas,
                stamps: vec![0; slots],
                num_sets,
                assoc,
                clock: 0,
                live: 0,
            }
        }

        /// Number of sets.
        pub fn num_sets(&self) -> usize {
            self.num_sets
        }

        /// Associativity.
        pub fn assoc(&self) -> usize {
            self.assoc
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

        fn find(&self, set: usize, key: K) -> Option<usize> {
            self.set_range(set).find(|&i| self.keys[i] == Some(key))
        }

        /// Looks up `key` in `set`, updating recency on hit.
        ///
        /// The LRU clock only advances on a hit: a miss leaves recency state
        /// untouched, so long miss streaks cannot skew the victim ordering.
        pub fn get_mut(&mut self, set: usize, key: K) -> Option<&mut M> {
            let i = self.find(set, key)?;
            self.clock += 1;
            self.stamps[i] = self.clock;
            Some(&mut self.metas[i])
        }

        /// Looks up `key` in `set` without touching recency.
        pub fn peek(&self, set: usize, key: K) -> Option<&M> {
            self.find(set, key).map(|i| &self.metas[i])
        }

        /// Inserts `key` into `set`; on a full set the LRU entry is evicted and
        /// returned. Inserting a key already present replaces its metadata.
        pub fn insert(&mut self, set: usize, key: K, meta: M) -> Option<(K, M)> {
            self.clock += 1;
            let clock = self.clock;
            let range = self.set_range(set);

            // One pass over the set: replace in place if present, otherwise
            // remember the first free way and the LRU victim (first occupied
            // way with the minimal stamp).
            let mut free = None;
            let mut victim_idx = range.start;
            let mut victim_stamp = u64::MAX;
            for i in range {
                match self.keys[i] {
                    Some(k) if k == key => {
                        self.metas[i] = meta;
                        self.stamps[i] = clock;
                        return None;
                    }
                    Some(_) => {
                        if self.stamps[i] < victim_stamp {
                            victim_stamp = self.stamps[i];
                            victim_idx = i;
                        }
                    }
                    None => {
                        if free.is_none() {
                            free = Some(i);
                        }
                    }
                }
            }
            if let Some(i) = free {
                self.keys[i] = Some(key);
                self.metas[i] = meta;
                self.stamps[i] = clock;
                self.live += 1;
                return None;
            }
            // mda-lint: allow(lib-unwrap): structural invariant; with no free way the victim way is occupied
            let victim_key = self.keys[victim_idx].replace(key).expect("victim way occupied");
            let victim_meta = std::mem::replace(&mut self.metas[victim_idx], meta);
            self.stamps[victim_idx] = clock;
            Some((victim_key, victim_meta))
        }

        /// Removes `key` from `set`, returning its metadata.
        pub fn remove(&mut self, set: usize, key: K) -> Option<M> {
            let i = self.find(set, key)?;
            self.keys[i] = None;
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
                    if let Some(key) = self.keys[i].take() {
                        self.live -= 1;
                        f(set, key, std::mem::take(&mut self.metas[i]));
                    }
                }
            }
        }

        /// Iterates over the `(key, meta)` pairs resident in `set`.
        pub fn iter_set(&self, set: usize) -> impl Iterator<Item = (&K, &M)> {
            let range = self.set_range(set);
            self.keys[range.clone()]
                .iter()
                .zip(&self.metas[range])
                .filter_map(|(k, m)| k.as_ref().map(|k| (k, m)))
        }

        /// Iterates over every resident `(key, meta)` pair.
        pub fn iter(&self) -> impl Iterator<Item = (&K, &M)> {
            self.keys.iter().zip(&self.metas).filter_map(|(k, m)| k.as_ref().map(|k| (k, m)))
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
}

/// How often each interesting event was exercised, so a generator change
/// that stops reaching one fails loudly instead of testing less.
#[derive(Debug, Default)]
struct Coverage {
    hits: u64,
    fill_hits: u64,
    fill_free: u64,
    fill_evictions: u64,
    removes: u64,
    drained: u64,
}

/// What a fill did, comparable across the two arrays.
#[derive(Debug, PartialEq, Eq)]
enum FillOutcome<K> {
    /// Resident; the merged metadata.
    Hit(u32),
    Inserted(Option<(K, u32)>),
}

fn fill_new<K: PackedKey>(
    a: &mut SetArray<K, u32>,
    set: usize,
    key: K,
    meta: u32,
) -> FillOutcome<K> {
    match a.fill(set, key, meta) {
        Filled::Hit(m) => {
            *m |= meta;
            FillOutcome::Hit(*m)
        }
        Filled::Inserted(evicted) => FillOutcome::Inserted(evicted),
    }
}

fn fill_old<K: Copy + Eq>(
    a: &mut oracle::SetArray<K, u32>,
    set: usize,
    key: K,
    meta: u32,
) -> FillOutcome<K> {
    if let Some(m) = a.get_mut(set, key) {
        *m |= meta;
        return FillOutcome::Hit(*m);
    }
    FillOutcome::Inserted(a.insert(set, key, meta))
}

fn resident_new<K: PackedKey>(a: &SetArray<K, u32>) -> Vec<(K, u32)> {
    a.iter().map(|(k, m)| (k, *m)).collect()
}

fn resident_old<K: Copy + Eq>(a: &oracle::SetArray<K, u32>) -> Vec<(K, u32)> {
    a.iter().map(|(k, m)| (*k, *m)).collect()
}

/// Replays `ops` seeded calls over keys drawn from `pool`, each placed in
/// the set `place(key)` selects.
fn replay<K: PackedKey + Eq + Debug>(
    seed: u64,
    sets: usize,
    assoc: usize,
    pool: &[K],
    place: impl Fn(&K) -> u64,
    ops: usize,
    cov: &mut Coverage,
) {
    let mut rng = Rng(seed);
    let mut new: SetArray<K, u32> = SetArray::new(sets, assoc);
    let mut old: oracle::SetArray<K, u32> = oracle::SetArray::new(sets, assoc);

    for step in 0..ops {
        let ctx = |what: &str| format!("seed {seed} {sets}x{assoc} step {step}: {what}");
        let key = rng.pick(pool);
        let set = new.set_index(place(&key));
        assert_eq!(set, old.set_index(place(&key)), "{}", ctx("set_index"));
        let meta = rng.next() as u32;
        match rng.below(1000) {
            0..=249 => {
                let got = new.get_mut(set, key).map(|m| {
                    *m ^= meta;
                    *m
                });
                let want = old.get_mut(set, key).map(|m| {
                    *m ^= meta;
                    *m
                });
                assert_eq!(got, want, "{}", ctx("get_mut"));
                cov.hits += u64::from(want.is_some());
            }
            250..=349 => {
                assert_eq!(new.peek(set, key), old.peek(set, key), "{}", ctx("peek"));
            }
            350..=849 => {
                let before = old.len();
                let got = fill_new(&mut new, set, key, meta);
                let want = fill_old(&mut old, set, key, meta);
                assert_eq!(got, want, "{}", ctx("fill"));
                match want {
                    FillOutcome::Hit(_) => cov.fill_hits += 1,
                    FillOutcome::Inserted(None) => {
                        assert_eq!(old.len(), before + 1);
                        cov.fill_free += 1;
                    }
                    FillOutcome::Inserted(Some(_)) => cov.fill_evictions += 1,
                }
            }
            850..=949 => {
                let want = old.remove(set, key);
                assert_eq!(new.remove(set, key), want, "{}", ctx("remove"));
                cov.removes += u64::from(want.is_some());
            }
            950..=997 => {
                assert_eq!(resident_new(&new), resident_old(&old), "{}", ctx("iter"));
                let probe = rng.below(sets as u64) as usize;
                let got: Vec<(K, u32)> = new.iter_set(probe).map(|(k, m)| (k, *m)).collect();
                let want: Vec<(K, u32)> = old.iter_set(probe).map(|(k, m)| (*k, *m)).collect();
                assert_eq!(got, want, "{}", ctx("iter_set"));
            }
            _ => {
                let mut got = Vec::new();
                let mut want = Vec::new();
                new.drain_all(|s, k, m| got.push((s, k, m)));
                old.drain_all(|s, k, m| want.push((s, k, m)));
                assert_eq!(got, want, "{}", ctx("drain_all"));
                cov.drained += want.len() as u64;
            }
        }
        assert_eq!(new.len(), old.len(), "{}", ctx("len"));
        assert_eq!(new.is_empty(), old.is_empty(), "{}", ctx("is_empty"));
    }
    assert_eq!(resident_new(&new), resident_old(&old), "seed {seed}: final contents");
}

/// `n` distinct keys from `draw`, starting with the `fixed` ones.
fn pool<K: Copy + Eq>(
    rng: &mut Rng,
    fixed: &[K],
    n: usize,
    mut draw: impl FnMut(&mut Rng) -> K,
) -> Vec<K> {
    let mut keys = fixed.to_vec();
    while keys.len() < n {
        let k = draw(rng);
        if !keys.contains(&k) {
            keys.push(k);
        }
    }
    keys
}

/// A tile id: mostly small and clustered, sometimes near the top of the
/// address space.
fn tile(rng: &mut Rng) -> u64 {
    match rng.below(8) {
        0 => MAX_TILE - rng.below(4),
        1 => rng.below(MAX_TILE + 1),
        _ => rng.below(64),
    }
}

fn line(rng: &mut Rng) -> LineKey {
    let orient = if rng.below(2) == 0 { Orientation::Row } else { Orientation::Col };
    LineKey::new(tile(rng), orient, rng.below(8) as u8)
}

const SET_COUNTS: [usize; 6] = [1, 3, 4, 6, 12, 16];

fn check_coverage(what: &str, cov: &Coverage) {
    for (name, n) in [
        ("hits", cov.hits),
        ("fill_hits", cov.fill_hits),
        ("fill_free", cov.fill_free),
        ("fill_evictions", cov.fill_evictions),
        ("removes", cov.removes),
        ("drained", cov.drained),
    ] {
        assert!(n > 0, "{what}: no {name}: {cov:?}");
    }
}

#[test]
fn line_keyed_array_matches_the_option_lane_oracle() {
    let fixed = [
        LineKey::new(0, Orientation::Row, 0),
        LineKey::new(MAX_TILE, Orientation::Col, 7),
        LineKey::new(MAX_TILE, Orientation::Row, 0),
    ];
    for sets in SET_COUNTS {
        let mut cov = Coverage::default();
        for assoc in 1..=16 {
            let seed = (sets * 100 + assoc) as u64;
            let mut rng = Rng(seed ^ 0x5EED);
            // About twice as many keys as frames: hits and evictions both.
            let keys = pool(&mut rng, &fixed, 2 * sets * assoc + 2, line);
            // Different-Set placement for even associativities, Same-Set
            // (all sixteen lines of a tile in one set) for odd ones.
            if assoc % 2 == 0 {
                replay(seed, sets, assoc, &keys, |l| l.tile * 8 + u64::from(l.idx), 3000, &mut cov);
            } else {
                replay(seed, sets, assoc, &keys, |l| l.tile, 3000, &mut cov);
            }
        }
        check_coverage(&format!("{sets} line sets"), &cov);
    }
}

#[test]
fn tile_keyed_array_matches_the_option_lane_oracle() {
    let fixed = [0, MAX_TILE, MAX_TILE - 1];
    assert_eq!(MAX_TILE, (1 << 55) - 1);
    for sets in SET_COUNTS {
        let mut cov = Coverage::default();
        for assoc in 1..=16 {
            let seed = (sets * 100 + assoc) as u64;
            let mut rng = Rng(seed ^ 0x711E);
            let keys = pool(&mut rng, &fixed, 2 * sets * assoc + 2, tile);
            replay(seed, sets, assoc, &keys, |t| *t, 3000, &mut cov);
        }
        check_coverage(&format!("{sets} tile sets"), &cov);
    }
}

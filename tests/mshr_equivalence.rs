//! Differential test of the MSHR file: seeded sequences of `on_miss`,
//! `pending_completion`, `complete` and `expire` are replayed through
//! `mda_cache::Mshr` and through the original linear, insertion-ordered
//! implementation (kept below as the oracle). Every decision, every pending
//! completion and the outstanding count must agree after every call.
//!
//! The sequences honour the one contract the sorted file relies on: a line
//! is only `complete`d while the file holds no entry for it (the hierarchy
//! calls `complete` only after an `Allocated` decision).
//!
//! The file's two counting filters (over lines, and over a tile's lines of
//! one orientation) may only skip scans that would find nothing. Before
//! each lookup the test checks them against the oracle's live entries: a
//! filter must admit every live line, and the shapes whose tile ids alias
//! in the filter slots must see it admit absent ones too, so collisions are
//! exercised and shown harmless.

mod common;

use common::Rng;
use mda_cache::mshr::MshrDecision;
use mda_cache::{CacheConfig, Mshr};
use mda_mem::{Cycle, LineKey, Orientation};

/// The original MSHR file: an unsorted `Vec` scanned and compacted in full
/// on every call.
mod oracle {
    use mda_cache::mshr::MshrDecision;
    use mda_mem::{Cycle, LineKey};

    /// One outstanding miss.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Entry {
        line: LineKey,
        completes: Cycle,
        is_write: bool,
    }

    /// A bounded table of outstanding misses for one cache level.
    #[derive(Debug, Clone)]
    pub struct Mshr {
        entries: Vec<Entry>,
        capacity: usize,
    }

    impl Mshr {
        pub fn new(capacity: usize) -> Mshr {
            assert!(capacity > 0, "MSHR capacity must be non-zero");
            Mshr { entries: Vec::with_capacity(capacity), capacity }
        }

        pub fn outstanding(&self) -> usize {
            self.entries.len()
        }

        pub fn expire(&mut self, now: Cycle) {
            self.entries.retain(|e| e.completes > now);
        }

        pub fn on_miss(&mut self, line: LineKey, is_write: bool, now: Cycle) -> MshrDecision {
            let mut keep = 0;
            let mut coalesced: Option<Cycle> = None;
            let mut earliest = Cycle::MAX;
            let mut overlap_until: Cycle = 0;
            for r in 0..self.entries.len() {
                let e = self.entries[r];
                if e.completes <= now {
                    continue; // expired
                }
                if coalesced.is_none() && e.line == line {
                    coalesced = Some(e.completes);
                }
                earliest = earliest.min(e.completes);
                if e.line.overlaps(&line) && (e.is_write || is_write) {
                    overlap_until = overlap_until.max(e.completes);
                }
                if keep != r {
                    self.entries[keep] = e;
                }
                keep += 1;
            }
            self.entries.truncate(keep);

            if let Some(completes) = coalesced {
                return MshrDecision::Coalesced { completes };
            }

            // Full file: the request waits for the earliest completion.
            let mut ready_at = now;
            if self.entries.len() >= self.capacity {
                ready_at = earliest;
                self.entries.retain(|e| e.completes > earliest);
            }

            let issue_at = overlap_until.max(ready_at);
            MshrDecision::Allocated { issue_at, ready_at }
        }

        pub fn pending_completion(&mut self, line: &LineKey, now: Cycle) -> Option<Cycle> {
            let mut keep = 0;
            let mut found = None;
            for r in 0..self.entries.len() {
                let e = self.entries[r];
                if e.completes <= now {
                    continue;
                }
                if found.is_none() && e.line == *line {
                    found = Some(e.completes);
                }
                if keep != r {
                    self.entries[keep] = e;
                }
                keep += 1;
            }
            self.entries.truncate(keep);
            found
        }

        pub fn complete(&mut self, line: LineKey, is_write: bool, completes: Cycle) {
            if self.entries.len() >= self.capacity {
                let earliest = self
                    .entries
                    .iter()
                    .map(|e| e.completes)
                    .min()
                    .expect("full MSHR file is non-empty");
                self.entries.retain(|e| e.completes > earliest);
            }
            self.entries.push(Entry { line, completes, is_write });
        }
    }

    impl Mshr {
        /// Whether the file holds an entry for `line`, expired or not (the
        /// test's guard for the one-entry-per-line contract of `complete`).
        pub fn holds(&self, line: &LineKey) -> bool {
            self.entries.iter().any(|e| e.line == *line)
        }

        /// Whether some entry already completes at `cycle`.
        pub fn holds_completion(&self, cycle: Cycle) -> bool {
            self.entries.iter().any(|e| e.completes == cycle)
        }
    }
}

/// How often each interesting event was exercised, so a generator change
/// that stops reaching one fails loudly instead of testing less.
#[derive(Debug, Default)]
struct Coverage {
    coalesced: u64,
    stalled: u64,
    ordered: u64,
    pending_hits: u64,
    full_completes: u64,
    backward_steps: u64,
    tied_completes: u64,
    /// The filters admitted a line with no live entry (a scan in vain).
    line_maybe_absent: u64,
    /// The tile filter admitted a miss with no live other-orientation line
    /// in its tile.
    cross_maybe_absent: u64,
}

/// The shape of one replayed sequence.
struct Shape {
    capacity: usize,
    /// The tile ids lines are drawn from.
    tiles: Vec<u64>,
    idxs: u64,
    /// Upper bound of a fill latency; long latencies fill the file.
    max_latency: u64,
}

/// `n` tile ids: small ids plus one near the top of the packed-key range,
/// so the packing's high bits are exercised.
fn tile_ids(n: u64) -> Vec<u64> {
    (0..n).map(|k| if k == 0 { (1 << 54) + 3 } else { k }).collect()
}

/// `n` tile ids besides `base` for which `aliases` holds, given a file
/// whose only live entry is `seed`. A filter's hash is private, so aliasing
/// ids are found by asking the filters themselves.
fn aliasing_tiles(
    base: u64,
    seed: LineKey,
    n: usize,
    aliases: impl Fn(&Mshr, u64) -> bool,
) -> Vec<u64> {
    let mut m = Mshr::new(1);
    m.complete(seed, false, Cycle::MAX);
    let mut tiles = vec![base];
    tiles.extend((base + 1..base + (1 << 24)).filter(|&t| aliases(&m, t)).take(n));
    assert_eq!(tiles.len(), n + 1, "the filters alias too few of 16M tile ids");
    tiles
}

fn random_line(rng: &mut Rng, shape: &Shape) -> LineKey {
    let orient = if rng.chance(50) { Orientation::Row } else { Orientation::Col };
    let idx = rng.below(shape.idxs) as u8;
    let tile = shape.tiles[rng.below(shape.tiles.len() as u64) as usize];
    LineKey::new(tile, orient, idx)
}

/// Checks the filters against the oracle's live entries before a lookup
/// of `line` at `now`. The checks run on copies expired to `now`, so the
/// files under test still expire stale entries on their own.
fn check_filters(new: &Mshr, old: &oracle::Mshr, line: &LineKey, now: Cycle, cov: &mut Coverage) {
    let (mut new, mut old) = (new.clone(), old.clone());
    new.expire(now);
    old.expire(now);
    if old.holds(line) {
        assert!(new.may_hold(line), "filters deny live {line}");
    } else {
        cov.line_maybe_absent += u64::from(new.may_hold(line));
    }
    let other = line.orient.other();
    if (0..8).any(|idx| old.holds(&LineKey::new(line.tile, other, idx))) {
        assert!(new.may_cross(line), "tile filter denies a live line crossing {line}");
    } else {
        cov.cross_maybe_absent += u64::from(new.may_cross(line));
    }
}

/// A latency drawn from a coarse grid, so completions often tie.
fn latency(rng: &mut Rng, shape: &Shape) -> Cycle {
    let steps = shape.max_latency / 8;
    8 * rng.below(steps + 1)
}

fn complete_both(
    new: &mut Mshr,
    old: &mut oracle::Mshr,
    line: LineKey,
    is_write: bool,
    done: Cycle,
    cov: &mut Coverage,
) {
    cov.tied_completes += u64::from(old.holds_completion(done));
    new.complete(line, is_write, done);
    old.complete(line, is_write, done);
}

fn replay(seed: u64, shape: &Shape, ops: usize, cov: &mut Coverage) {
    let mut rng = Rng(seed);
    let mut new = Mshr::new(shape.capacity);
    let mut old = oracle::Mshr::new(shape.capacity);
    let mut now: Cycle = 1000;

    for step in 0..ops {
        // Time mostly advances, but callers also probe earlier cycles (fill
        // companions and writebacks are issued at other timestamps).
        match rng.below(10) {
            0 => {
                now = now.saturating_sub(rng.below(64));
                cov.backward_steps += 1;
            }
            1 => {}
            _ => now += rng.below(12),
        }
        let ctx = |what: &str| format!("seed {seed} cap {} step {step}: {what}", shape.capacity);

        let line = random_line(&mut rng, shape);
        let is_write = rng.chance(30);
        match rng.below(100) {
            0..=44 => {
                check_filters(&new, &old, &line, now, cov);
                let got = new.on_miss(line, is_write, now);
                let want = old.on_miss(line, is_write, now);
                assert_eq!(got, want, "{}", ctx("on_miss"));
                match want {
                    MshrDecision::Coalesced { .. } => cov.coalesced += 1,
                    MshrDecision::Allocated { issue_at, ready_at } => {
                        cov.stalled += u64::from(ready_at > now);
                        cov.ordered += u64::from(issue_at > ready_at);
                        // The hierarchy completes every allocation before it
                        // touches this file again; a few are dropped here to
                        // leave gaps.
                        if rng.chance(95) {
                            let done = issue_at + latency(&mut rng, shape);
                            complete_both(&mut new, &mut old, line, is_write, done, cov);
                        }
                    }
                }
            }
            45..=84 => {
                check_filters(&new, &old, &line, now, cov);
                let got = new.pending_completion(&line, now);
                let want = old.pending_completion(&line, now);
                assert_eq!(got, want, "{}", ctx("pending_completion"));
                cov.pending_hits += u64::from(want.is_some());
            }
            85..=94 => {
                // A completion without a prior on_miss, possibly into a full
                // file and possibly already in the past.
                if !old.holds(&line) {
                    cov.full_completes += u64::from(old.outstanding() >= shape.capacity);
                    let done = now.saturating_sub(16) + latency(&mut rng, shape);
                    complete_both(&mut new, &mut old, line, is_write, done, cov);
                }
            }
            _ => {
                new.expire(now);
                old.expire(now);
            }
        }
        assert_eq!(new.outstanding(), old.outstanding(), "{}", ctx("outstanding"));
    }
}

#[test]
fn sorted_mshr_matches_the_linear_oracle() {
    for capacity in [1, 2, 3, 16, 32, 64] {
        let mut cov = Coverage::default();
        for seed in 0..12u64 {
            // Alternate a crowded line pool (coalescing, same-tile row/column
            // mixes) with a wide one (more lines than registers).
            let shape = if seed % 2 == 0 {
                Shape { capacity, tiles: tile_ids(2), idxs: 3, max_latency: 96 }
            } else {
                Shape { capacity, tiles: tile_ids(8), idxs: 8, max_latency: 32 * capacity as u64 }
            };
            replay(seed * 0x1000 + capacity as u64, &shape, 4000, &mut cov);
        }
        assert!(cov.coalesced > 0, "capacity {capacity}: no coalescing: {cov:?}");
        assert!(cov.stalled > 0, "capacity {capacity}: no full-file stall: {cov:?}");
        // A single register is always empty again once a new miss is
        // allocated, so nothing can order it or tie with it.
        assert!(
            capacity == 1 || cov.ordered > 0,
            "capacity {capacity}: no overlap ordering: {cov:?}"
        );
        assert!(cov.pending_hits > 0, "capacity {capacity}: no pending hit: {cov:?}");
        assert!(cov.full_completes > 0, "capacity {capacity}: no full complete: {cov:?}");
        assert!(cov.backward_steps > 0, "capacity {capacity}: time never went back: {cov:?}");
        assert!(
            capacity == 1 || cov.tied_completes > 0,
            "capacity {capacity}: no tied completions: {cov:?}"
        );
    }
}

#[test]
fn aliasing_lines_only_cost_a_scan() {
    // Tiles whose row 0 shares the line-filter slot of tile 5's row 0:
    // their rows 0 collide with each other in the filter.
    let row0 = |t| LineKey::new(t, Orientation::Row, 0);
    let tiles = aliasing_tiles(5, row0(5), 5, |m, t| m.may_hold(&row0(t)));
    for capacity in [2, 4, 16] {
        let mut cov = Coverage::default();
        for seed in 0..8u64 {
            let shape = Shape {
                capacity,
                tiles: tiles.clone(),
                idxs: 1,
                max_latency: 16 * capacity as u64,
            };
            replay(0xA11A5 + seed * 0x100 + capacity as u64, &shape, 3000, &mut cov);
        }
        assert!(
            cov.line_maybe_absent > 0,
            "capacity {capacity}: line filter never collided: {cov:?}"
        );
        assert!(cov.coalesced > 0 && cov.ordered > 0, "capacity {capacity}: {cov:?}");
    }
}

#[test]
fn aliasing_cross_orientation_tiles_only_cost_a_scan() {
    // Tiles whose column lines share the tile-filter slot of tile 9's
    // columns: a miss on any of their rows is admitted by the filter, but
    // only tile 9's own columns overlap it.
    let col0 = |t| LineKey::new(t, Orientation::Col, 0);
    let row0 = |t| LineKey::new(t, Orientation::Row, 0);
    let tiles = aliasing_tiles(9, col0(9), 3, |m, t| m.may_cross(&row0(t)));
    for capacity in [2, 8, 32] {
        let mut cov = Coverage::default();
        for seed in 0..8u64 {
            let shape = Shape {
                capacity,
                tiles: tiles.clone(),
                idxs: 4,
                max_latency: 16 * capacity as u64,
            };
            replay(0xC055 + seed * 0x100 + capacity as u64, &shape, 3000, &mut cov);
        }
        assert!(
            cov.cross_maybe_absent > 0,
            "capacity {capacity}: tile filter never collided: {cov:?}"
        );
        assert!(cov.ordered > 0, "capacity {capacity}: no overlap ordering: {cov:?}");
    }
}

/// Fills a `capacity`-register file with `lines` (all live at once), then
/// checks every lookup against the oracle, a stall on the full file, and
/// that the filters empty again once everything expired.
fn fill_with_aliasing_lines(capacity: usize, lines: &[LineKey], probes: &[LineKey]) {
    let mut new = Mshr::new(capacity);
    let mut old = oracle::Mshr::new(capacity);
    let now = 10;
    for (i, line) in lines.iter().enumerate() {
        let is_write = i % 3 == 0;
        let got = new.on_miss(*line, is_write, now);
        assert_eq!(got, old.on_miss(*line, is_write, now), "allocating {line}");
        let done = 1000 + i as Cycle;
        new.complete(*line, is_write, done);
        old.complete(*line, is_write, done);
        // A count that wrapped to zero would deny the line just added.
        assert!(new.may_hold(line), "line filter lost {line} at {} entries", i + 1);
        let crossing = LineKey::new(line.tile, line.orient.other(), 0);
        assert!(new.may_cross(&crossing), "tile filter lost {line} at {} entries", i + 1);
    }
    assert_eq!(new.outstanding(), lines.len());
    for line in lines.iter().chain(probes) {
        assert!(!old.holds(line) || new.may_hold(line), "line filter denies live {line}");
        assert_eq!(new.pending_completion(line, now), old.pending_completion(line, now), "{line}");
        for is_write in [false, true] {
            let (mut n, mut o) = (new.clone(), old.clone());
            assert_eq!(
                n.on_miss(*line, is_write, now),
                o.on_miss(*line, is_write, now),
                "miss on {line}"
            );
        }
    }
    new.expire(Cycle::MAX);
    old.expire(Cycle::MAX);
    assert_eq!(new.outstanding(), 0);
    for line in lines.iter().chain(probes) {
        assert!(!new.may_hold(line) && !new.may_cross(line), "filter kept a count for {line}");
    }
    // Expiry must leave both filters as a fresh file's: give the drained
    // file and a fresh one the same new line, beside the first line in its
    // tile and orientation, and compare every answer.
    let first = lines[0];
    let beside = (0..8).map(|idx| LineKey::new(first.tile, first.orient, idx));
    if let Some(sibling) = beside.rev().find(|l| !lines.contains(l)) {
        let mut fresh = Mshr::new(capacity);
        new.complete(sibling, false, 5000);
        fresh.complete(sibling, false, 5000);
        for line in lines.iter().chain(probes) {
            assert_eq!(new.may_hold(line), fresh.may_hold(line), "stale count for {line}");
            assert_eq!(new.may_cross(line), fresh.may_cross(line), "stale count for {line}");
        }
    }
}

#[test]
fn filter_counts_hold_more_than_255_aliasing_entries() {
    // A filter slot counts at most every live entry, and
    // `CacheConfig::validate` accepts up to `Mshr::MAX_CAPACITY` of them,
    // so a slot must count past a byte. 300 live lines share one slot of
    // both filters, then 300 live rows (of 38 tiles) share one tile-filter
    // slot.
    let mut cfg = CacheConfig::l1_32k();
    cfg.mshrs = Mshr::MAX_CAPACITY;
    assert_eq!(cfg.validate(), Ok(()));
    assert_eq!(Mshr::new(Mshr::MAX_CAPACITY).outstanding(), 0);
    cfg.mshrs += 1;
    assert!(cfg.validate().is_err(), "validate must bound the filter counts");

    let capacity = 300;
    let row3 = |t| LineKey::new(t, Orientation::Row, 3);
    let lines: Vec<LineKey> = aliasing_tiles(1, row3(1), capacity - 1, |m, t| m.may_hold(&row3(t)))
        .into_iter()
        .map(row3)
        .collect();
    let probes = [LineKey::new(lines[7].tile, Orientation::Col, 3), row3(0)];
    fill_with_aliasing_lines(capacity, &lines, &probes);

    let row0 = |t| LineKey::new(t, Orientation::Row, 0);
    let tiles = aliasing_tiles(1, row0(1), capacity / 8, |m, t| {
        m.may_cross(&LineKey::new(t, Orientation::Col, 0))
    });
    let rows: Vec<LineKey> = tiles
        .iter()
        .flat_map(|&t| (0..8).map(move |idx| LineKey::new(t, Orientation::Row, idx)))
        .take(capacity)
        .collect();
    assert_eq!(rows.len(), capacity);
    let crossing = [
        LineKey::new(tiles[3], Orientation::Col, 5),
        LineKey::new(tiles[0] + 1, Orientation::Col, 5),
    ];
    fill_with_aliasing_lines(capacity, &rows, &crossing);
}

// mda-lint: hot-path
//! 2-D-aware miss-status-holding registers (paper Sec. IV-B-b).
//!
//! Besides the usual duties — coalescing secondary misses to an outstanding
//! line and bounding miss-level parallelism — the MDA MSHRs enforce ordering
//! between *overlapping* transactions even when their access directions
//! differ: a request that shares a word with an outstanding request of the
//! other orientation (same tile) must not be reordered ahead of it when one
//! of the two writes.
//!
//! In the latency-forwarding simulator an entry is simply the completion
//! cycle of the outstanding fill; entries expire lazily as time advances.

use mda_mem::{Cycle, LineKey};

/// One outstanding miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    /// The line, packed by [`LineKey::pack`].
    key: u64,
    completes: Cycle,
    is_write: bool,
}

/// log2 of the slots per [`CountingFilter`].
const FILTER_BITS: u32 = 6;

/// A counting filter over `u64` keys: each slot counts the live entries
/// whose key hashes to it (Fibonacci hashing, so strided tile ids spread).
/// A zero count proves no live entry has the key, which skips a scan; a
/// collision only fails to skip a scan that finds nothing, so the filter
/// never changes an outcome. A slot counts at most the live entries, which
/// never exceed [`Mshr::MAX_CAPACITY`], so a `u16` count cannot overflow.
#[derive(Debug, Clone)]
struct CountingFilter {
    counts: [u16; 1 << FILTER_BITS],
}

impl CountingFilter {
    const EMPTY: CountingFilter = CountingFilter { counts: [0; 1 << FILTER_BITS] };

    #[inline]
    fn slot(key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - FILTER_BITS)) as usize
    }

    #[inline]
    fn add(&mut self, key: u64) {
        self.counts[Self::slot(key)] += 1;
    }

    #[inline]
    fn remove(&mut self, key: u64) {
        self.counts[Self::slot(key)] -= 1;
    }

    /// `false` is definitive; `true` may be a collision.
    #[inline]
    fn may_contain(&self, key: u64) -> bool {
        self.counts[Self::slot(key)] != 0
    }
}

/// A bounded table of outstanding misses for one cache level.
///
/// Live entries are `entries[head..]`, sorted by completion cycle, so
/// expiry advances `head` past a prefix and the earliest completion is at
/// `head`. The file holds at most one entry per line: [`Mshr::complete`]
/// only follows an [`MshrDecision::Allocated`], which proves the line
/// absent, so lookups need no insertion order. Two counting filters over
/// the live entries, one over packed line keys and one over (tile,
/// orientation) pairs, let most scans be skipped: a line lookup (coalescing
/// and [`Mshr::pending_completion`]) scans only when both admit the line,
/// the overlap-ordering scan only when the pair filter admits the other
/// orientation of the tile.
#[derive(Debug, Clone)]
pub struct Mshr {
    entries: Vec<Entry>,
    head: usize,
    capacity: usize,
    /// Filter over live packed keys.
    lines: CountingFilter,
    /// Filter over live (tile, orientation) pairs: packed keys `>> 3`.
    tiles: CountingFilter,
}

/// What the MSHR decided about a new miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrDecision {
    /// A fresh entry was allocated; the miss proceeds to the level below.
    Allocated {
        /// Earliest cycle the request may be issued below, after ordering
        /// constraints against overlapping outstanding transactions.
        issue_at: Cycle,
        /// Cycle the core had to wait until for a free register (equals the
        /// request time when no stall occurred).
        ready_at: Cycle,
    },
    /// The miss was coalesced into an outstanding entry for the same line;
    /// it completes when that entry does, with no new request below.
    Coalesced {
        /// Completion of the primary miss.
        completes: Cycle,
    },
}

impl Mshr {
    /// The most registers a file may have, so that the filter counts fit a
    /// `u16`. `CacheConfig::validate` rejects larger `mshrs`.
    pub const MAX_CAPACITY: usize = u16::MAX as usize;

    /// Creates an MSHR file with `capacity` registers.
    ///
    /// # Panics
    /// Panics if `capacity` is zero or above [`Mshr::MAX_CAPACITY`].
    pub fn new(capacity: usize) -> Mshr {
        assert!(capacity > 0, "MSHR capacity must be non-zero");
        assert!(
            capacity <= Mshr::MAX_CAPACITY,
            "MSHR capacity {capacity} exceeds the filter counts"
        );
        Mshr {
            entries: Vec::with_capacity(capacity),
            head: 0,
            capacity,
            lines: CountingFilter::EMPTY,
            tiles: CountingFilter::EMPTY,
        }
    }

    /// The live entries, earliest completion first.
    #[inline]
    fn live(&self) -> &[Entry] {
        &self.entries[self.head..]
    }

    /// Registers currently outstanding.
    pub fn outstanding(&self) -> usize {
        self.entries.len() - self.head
    }

    /// Drops entries that completed at or before `now`.
    pub fn expire(&mut self, now: Cycle) {
        while let Some(&e) = self.entries.get(self.head) {
            if e.completes > now {
                return;
            }
            self.lines.remove(e.key);
            self.tiles.remove(e.key >> 3);
            self.head += 1;
        }
        self.entries.clear();
        self.head = 0;
    }

    /// Whether both filters admit packed key `key`; `false` is definitive.
    #[inline]
    fn admits(&self, key: u64) -> bool {
        self.lines.may_contain(key) && self.tiles.may_contain(key >> 3)
    }

    /// Completion cycle of the live entry for `key`, if any.
    #[inline]
    fn find(&self, key: u64) -> Option<Cycle> {
        if !self.admits(key) {
            return None;
        }
        self.live().iter().find(|e| e.key == key).map(|e| e.completes)
    }

    /// Handles a miss on `line` at `now`.
    ///
    /// Returns either a coalescing decision or an allocation carrying the
    /// stall (`ready_at`) and ordering (`issue_at`) constraints. The caller
    /// must later call [`Mshr::complete`] with the fill's completion cycle.
    pub fn on_miss(&mut self, line: LineKey, is_write: bool, now: Cycle) -> MshrDecision {
        self.expire(now);
        let key = line.pack();
        // 2-D miss coalescing: "many misses to the same column are combined
        // into one column access in the MSHR" (paper Sec. VII).
        if let Some(completes) = self.find(key) {
            return MshrDecision::Coalesced { completes };
        }

        // Full file: the request waits for the earliest completion.
        let mut ready_at = now;
        if self.outstanding() >= self.capacity {
            ready_at = self.entries[self.head].completes;
            self.expire(ready_at);
        }

        // Ordering: wait for the latest overlapping transaction when either
        // side writes. The line itself is absent, so only lines of the other
        // orientation in the same tile overlap; entries the stall dropped
        // completed by `ready_at` and cannot raise `issue_at`.
        let mut issue_at = ready_at;
        if self.tiles.may_contain((key >> 3) ^ 1) {
            let overlap = self
                .live()
                .iter()
                .rev()
                .find(|e| (e.key ^ key) >> 3 == 1 && (e.is_write || is_write));
            if let Some(e) = overlap {
                issue_at = issue_at.max(e.completes);
            }
        }
        MshrDecision::Allocated { issue_at, ready_at }
    }

    /// Completion cycle of an outstanding fill of `line`, if any. Used by
    /// the hierarchy to delay "hits" on lines whose fill is still in
    /// flight (the state update is instantaneous in a latency-forwarding
    /// model, but the data is not).
    pub fn pending_completion(&mut self, line: &LineKey, now: Cycle) -> Option<Cycle> {
        self.expire(now);
        self.find(line.pack())
    }

    /// Records the completion cycle of a previously allocated miss.
    pub fn complete(&mut self, line: LineKey, is_write: bool, completes: Cycle) {
        let key = line.pack();
        debug_assert!(
            self.live().iter().all(|e| e.key != key),
            "MSHR already tracks {line}; complete must follow an allocation"
        );
        if self.outstanding() >= self.capacity {
            // Defensive: make room by dropping the earliest completion. The
            // on_miss path already freed space, so this only triggers when a
            // caller allocates without consulting on_miss.
            self.expire(self.entries[self.head].completes);
        }
        if self.entries.len() == self.capacity {
            // The buffer's tail is full but expiry freed its head: shift the
            // live entries down once instead of growing the buffer.
            self.entries.drain(..self.head);
            self.head = 0;
        }
        let at = self.head + self.live().partition_point(|e| e.completes <= completes);
        self.entries.insert(at, Entry { key, completes, is_write });
        self.lines.add(key);
        self.tiles.add(key >> 3);
    }

    /// Whether the filters admit `line`, so a lookup of it scans: `false`
    /// proves the file holds no live entry for it, `true` may be a filter
    /// collision. Exposed for the filter tests; decisions never depend on a
    /// collision.
    pub fn may_hold(&self, line: &LineKey) -> bool {
        self.admits(line.pack())
    }

    /// Whether the tile filter admits a live entry of the other orientation
    /// in `line`'s tile (the lines a miss on `line` is ordered against):
    /// `false` is definitive, `true` may be a collision. Exposed for the
    /// filter tests.
    pub fn may_cross(&self, line: &LineKey) -> bool {
        self.tiles.may_contain((line.pack() >> 3) ^ 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mda_mem::Orientation;

    fn line(tile: u64, o: Orientation, idx: u8) -> LineKey {
        LineKey::new(tile, o, idx)
    }

    #[test]
    fn secondary_miss_coalesces() {
        let mut m = Mshr::new(4);
        let l = line(1, Orientation::Col, 2);
        match m.on_miss(l, false, 10) {
            MshrDecision::Allocated { issue_at, ready_at } => {
                assert_eq!((issue_at, ready_at), (10, 10));
            }
            other => panic!("expected allocation, got {other:?}"),
        }
        m.complete(l, false, 500);
        match m.on_miss(l, false, 20) {
            MshrDecision::Coalesced { completes } => assert_eq!(completes, 500),
            other => panic!("expected coalescing, got {other:?}"),
        }
    }

    #[test]
    fn entries_expire_with_time() {
        let mut m = Mshr::new(4);
        let l = line(1, Orientation::Col, 2);
        m.complete(l, false, 500);
        match m.on_miss(l, false, 600) {
            MshrDecision::Allocated { .. } => {}
            other => panic!("expired entry must not coalesce: {other:?}"),
        }
    }

    #[test]
    fn full_file_stalls_until_earliest_completion() {
        let mut m = Mshr::new(2);
        m.complete(line(1, Orientation::Row, 0), false, 100);
        m.complete(line(2, Orientation::Row, 0), false, 200);
        match m.on_miss(line(3, Orientation::Row, 0), false, 10) {
            MshrDecision::Allocated { ready_at, .. } => assert_eq!(ready_at, 100),
            other => panic!("expected stalled allocation, got {other:?}"),
        }
        assert_eq!(m.outstanding(), 1, "the completed entry was retired");
    }

    #[test]
    fn overlapping_write_is_ordered_after_outstanding_read() {
        let mut m = Mshr::new(8);
        // Outstanding column read of tile 7.
        m.complete(line(7, Orientation::Col, 3), false, 400);
        // A row write to the same tile overlaps (they intersect in a word).
        match m.on_miss(line(7, Orientation::Row, 1), true, 10) {
            MshrDecision::Allocated { issue_at, .. } => assert_eq!(issue_at, 400),
            other => panic!("expected ordered allocation, got {other:?}"),
        }
    }

    #[test]
    fn overlapping_reads_need_no_ordering() {
        let mut m = Mshr::new(8);
        m.complete(line(7, Orientation::Col, 3), false, 400);
        match m.on_miss(line(7, Orientation::Row, 1), false, 10) {
            MshrDecision::Allocated { issue_at, .. } => assert_eq!(issue_at, 10),
            other => panic!("expected unordered allocation, got {other:?}"),
        }
    }

    #[test]
    fn non_overlapping_tiles_are_independent() {
        let mut m = Mshr::new(8);
        m.complete(line(7, Orientation::Col, 3), true, 400);
        match m.on_miss(line(8, Orientation::Row, 3), true, 10) {
            MshrDecision::Allocated { issue_at, .. } => assert_eq!(issue_at, 10),
            other => panic!("expected independent allocation, got {other:?}"),
        }
    }
}

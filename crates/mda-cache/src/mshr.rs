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

use mda_mem::{Cycle, LineKey, Orientation};

/// One outstanding miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    /// The line, packed by [`pack`].
    key: u64,
    completes: Cycle,
    is_write: bool,
}

/// Packs a line as `tile << 4 | orient << 3 | idx`, so two keys differ only
/// in bit 3 exactly when they are lines of opposite orientation in one tile.
#[inline]
fn pack(line: &LineKey) -> u64 {
    debug_assert!(line.tile < 1 << 60, "tile {} does not fit a packed line key", line.tile);
    let orient = u64::from(line.orient == Orientation::Col);
    line.tile << 4 | orient << 3 | u64::from(line.idx)
}

/// Orientation bit of a packed key (0 = row, 1 = column).
#[inline]
fn orient_of(key: u64) -> usize {
    (key >> 3 & 1) as usize
}

/// A bounded table of outstanding misses for one cache level.
///
/// Entries are kept sorted by completion cycle, so expiry drops a prefix and
/// the earliest completion is the head. The file holds at most one entry per
/// line: [`Mshr::complete`] only follows an [`MshrDecision::Allocated`],
/// which proves the line absent, so lookups need no insertion order.
#[derive(Debug, Clone)]
pub struct Mshr {
    entries: Vec<Entry>,
    capacity: usize,
    /// Entries per orientation, indexed by [`orient_of`]; a zero count
    /// skips a scan that could not match.
    per_orient: [usize; 2],
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
    /// Creates an MSHR file with `capacity` registers.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Mshr {
        assert!(capacity > 0, "MSHR capacity must be non-zero");
        Mshr { entries: Vec::with_capacity(capacity), capacity, per_orient: [0; 2] }
    }

    /// Registers currently outstanding.
    pub fn outstanding(&self) -> usize {
        self.entries.len()
    }

    /// Drops entries that completed at or before `now`.
    pub fn expire(&mut self, now: Cycle) {
        let n = self.entries.iter().take_while(|e| e.completes <= now).count();
        for e in self.entries.drain(..n) {
            self.per_orient[orient_of(e.key)] -= 1;
        }
    }

    /// Completion cycle of the live entry for `key`, if any.
    #[inline]
    fn find(&self, key: u64) -> Option<Cycle> {
        if self.per_orient[orient_of(key)] == 0 {
            return None;
        }
        self.entries.iter().find(|e| e.key == key).map(|e| e.completes)
    }

    /// Handles a miss on `line` at `now`.
    ///
    /// Returns either a coalescing decision or an allocation carrying the
    /// stall (`ready_at`) and ordering (`issue_at`) constraints. The caller
    /// must later call [`Mshr::complete`] with the fill's completion cycle.
    pub fn on_miss(&mut self, line: LineKey, is_write: bool, now: Cycle) -> MshrDecision {
        self.expire(now);
        let key = pack(&line);
        // 2-D miss coalescing: "many misses to the same column are combined
        // into one column access in the MSHR" (paper Sec. VII).
        if let Some(completes) = self.find(key) {
            return MshrDecision::Coalesced { completes };
        }

        // Full file: the request waits for the earliest completion.
        let mut ready_at = now;
        if self.entries.len() >= self.capacity {
            ready_at = self.entries[0].completes;
            self.expire(ready_at);
        }

        // Ordering: wait for the latest overlapping transaction when either
        // side writes. The line itself is absent, so only lines of the other
        // orientation in the same tile overlap; entries the stall dropped
        // completed by `ready_at` and cannot raise `issue_at`.
        let mut issue_at = ready_at;
        if self.per_orient[1 - orient_of(key)] > 0 {
            let overlap = self
                .entries
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
        self.find(pack(line))
    }

    /// Records the completion cycle of a previously allocated miss.
    pub fn complete(&mut self, line: LineKey, is_write: bool, completes: Cycle) {
        let key = pack(&line);
        debug_assert!(
            self.entries.iter().all(|e| e.key != key),
            "MSHR already tracks {line}; complete must follow an allocation"
        );
        if self.entries.len() >= self.capacity {
            // Defensive: make room by dropping the earliest completion. The
            // on_miss path already freed space, so this only triggers when a
            // caller allocates without consulting on_miss.
            self.expire(self.entries[0].completes);
        }
        let at = self.entries.partition_point(|e| e.completes <= completes);
        self.entries.insert(at, Entry { key, completes, is_write });
        self.per_orient[orient_of(key)] += 1;
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

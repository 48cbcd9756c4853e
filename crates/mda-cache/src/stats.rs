//! Per-cache-level statistics.

use crate::level::{Access, AccessWidth};
use mda_mem::Orientation;

/// Counters accumulated by one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand accesses presented to the level.
    pub accesses: u64,
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Scalar accesses with row preference.
    pub row_scalar: u64,
    /// Vector accesses with row preference.
    pub row_vector: u64,
    /// Scalar accesses with column preference.
    pub col_scalar: u64,
    /// Vector accesses with column preference.
    pub col_vector: u64,
    /// Hits served by a line of the *non-preferred* orientation
    /// (mis-oriented hits, scalar only; 2P2L covered vector hits too).
    pub misoriented_hits: u64,
    /// Lines installed by demand fills.
    pub demand_fills: u64,
    /// Lines installed by prefetch fills.
    pub prefetch_fills: u64,
    /// Dirty lines written back out of this level (evictions + policy).
    /// `Cache1P1L` never counts them, neither on a dirty eviction in
    /// `fill` nor in `flush`, so this is 0 at every 1P1L level (all of
    /// 1P1L, and the L1/L2 of 2P1L) even though its `bytes_to_below` is
    /// not.
    pub writebacks_out: u64,
    /// Lines evicted by the duplicate-word policy.
    pub dup_evictions: u64,
    /// Writebacks forced by the duplicate-word policy.
    pub dup_writebacks: u64,
    /// Duplicate word-copies created (row/col intersections co-resident).
    pub duplications: u64,
    /// Additional sequential tag-array accesses (beyond the first).
    pub extra_tag_accesses: u64,
    /// Misses coalesced into an already-outstanding MSHR entry.
    pub mshr_coalesced: u64,
    /// Stalls because all MSHRs were busy.
    pub mshr_stalls: u64,
    /// Bytes requested from the level below: one line per demand miss
    /// and per prefetch fill. A dense 2P2L miss fetches up to eight lines
    /// but still counts one, so at a dense LLC this is less than the
    /// memory's `bytes_read`.
    pub bytes_from_below: u64,
    /// Bytes of dirty words written back into the cache level below.
    /// Writebacks into memory are not counted, so the LLC's value is
    /// always 0; see the memory's `bytes_written` instead.
    pub bytes_to_below: u64,
}

impl CacheStats {
    /// Demand hit rate in `[0, 1]`; zero when the level is idle.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    /// Classifies and counts one demand access.
    pub fn note_access(&mut self, acc: &Access, hit: bool) {
        self.accesses += 1;
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        match (acc.orient, acc.width) {
            (Orientation::Row, AccessWidth::Scalar) => self.row_scalar += 1,
            (Orientation::Row, AccessWidth::Vector) => self.row_vector += 1,
            (Orientation::Col, AccessWidth::Scalar) => self.col_scalar += 1,
            (Orientation::Col, AccessWidth::Vector) => self.col_vector += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mda_mem::WordAddr;

    #[test]
    fn hit_rate_of_idle_cache_is_zero() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn note_access_classifies_by_orientation_and_width() {
        let mut s = CacheStats::default();
        let w = WordAddr::from_tile_coords(0, 0, 0);
        s.note_access(&Access::scalar_read(w, Orientation::Row, 0), true);
        s.note_access(&Access::scalar_read(w, Orientation::Col, 0), false);
        s.note_access(
            &Access::vector_read(mda_mem::LineKey::new(0, Orientation::Col, 0), 0),
            true,
        );
        assert_eq!(s.accesses, 3);
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 1);
        assert_eq!(s.row_scalar, 1);
        assert_eq!(s.col_scalar, 1);
        assert_eq!(s.col_vector, 1);
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }
}

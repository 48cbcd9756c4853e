// mda-lint: hot-path
//! Per-stream stride prefetcher for the 1P1L baseline.
//!
//! The paper evaluates its baseline *with* data prefetching enabled and the
//! MDA designs without (Sec. VII, first paragraph). This is a classic
//! PC-indexed stride prefetcher: each static memory instruction (stream id)
//! trains a stride in line-address space; once confident, it emits
//! `degree` prefetch candidates ahead of the demand address. A column walk
//! over a row-major array trains a stride equal to the array pitch, so the
//! prefetcher does hide column-access latency — but each prefetch still
//! moves a full 64-byte row line of which one word is useful, which is
//! exactly the bandwidth wastage MDA caching removes (paper Sec. IX-A).
//!
//! The training table is a **fixed-size direct-mapped array** indexed by
//! the low bits of the stream id, with the full id kept as a tag (a real
//! prefetcher's RPT, and allocation-free on the demand path — the former
//! `HashMap` rehashed on growth and hashed every lookup). Stream ids are
//! assigned densely from zero by the compiler, so the 512-entry table is
//! collision-free for every workload in the suite; a colliding id would
//! simply retrain the slot, exactly like a cold stream.

/// Direct-mapped table size (power of two; indexed by `stream & 511`).
const TABLE_SLOTS: usize = 512;

/// Training state for one static instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StreamEntry {
    last_line: i64,
    stride: i64,
    confidence: u8,
}

/// A PC-indexed stride prefetcher operating on 64-byte line addresses.
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    /// `(stream tag, training state)` per slot.
    table: Box<[Option<(u32, StreamEntry)>]>,
    degree: usize,
    confidence_threshold: u8,
}

/// Prefetch candidates produced by one [`StridePrefetcher::observe`] call:
/// an allocation-free iterator over `degree` line addresses ahead of the
/// demand line, skipping candidates below address zero.
#[derive(Debug, Clone, Copy)]
pub struct PrefetchTargets {
    line: i64,
    stride: i64,
    k: i64,
    degree: i64,
}

impl PrefetchTargets {
    fn none() -> PrefetchTargets {
        PrefetchTargets { line: 0, stride: 0, k: 1, degree: 0 }
    }
}

impl Iterator for PrefetchTargets {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        while self.k <= self.degree {
            let target = self.line + self.k * self.stride;
            self.k += 1;
            if target >= 0 {
                return Some(target as u64 * mda_mem::LINE_BYTES);
            }
        }
        None
    }
}

impl StridePrefetcher {
    /// Creates a prefetcher issuing `degree` lines ahead once a stream's
    /// stride has repeated twice.
    ///
    /// # Panics
    /// Panics if `degree` is zero (use no prefetcher instead).
    pub fn new(degree: usize) -> StridePrefetcher {
        assert!(degree > 0, "prefetch degree must be non-zero");
        StridePrefetcher {
            table: vec![None; TABLE_SLOTS].into_boxed_slice(),
            degree,
            confidence_threshold: 1,
        }
    }

    /// Observes a demand access by `stream` to the 64-byte-aligned
    /// `line_addr`, returning the line addresses to prefetch (empty until
    /// the stride is confident).
    pub fn observe(&mut self, stream: u32, line_addr: u64) -> PrefetchTargets {
        let line = (line_addr / mda_mem::LINE_BYTES) as i64;
        let slot = &mut self.table[stream as usize & (TABLE_SLOTS - 1)];
        let entry = match slot {
            Some((tag, entry)) if *tag == stream => entry,
            _ => {
                // Cold stream (or a colliding id taking over the slot):
                // start training from this line.
                let filled = slot
                    .insert((stream, StreamEntry { last_line: line, stride: 0, confidence: 0 }));
                &mut filled.1
            }
        };

        let observed = line - entry.last_line;
        if observed == 0 {
            // Same line again: nothing to learn, nothing to fetch.
            return PrefetchTargets::none();
        }
        if observed == entry.stride {
            entry.confidence = (entry.confidence + 1).min(3);
        } else {
            entry.stride = observed;
            entry.confidence = 0;
        }
        entry.last_line = line;

        if entry.confidence < self.confidence_threshold {
            return PrefetchTargets::none();
        }
        PrefetchTargets { line, stride: entry.stride, k: 1, degree: self.degree as i64 }
    }

    /// Clears all training state.
    pub fn reset(&mut self) {
        self.table.fill(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mda_mem::LINE_BYTES;

    #[test]
    fn unit_stride_stream_trains_and_prefetches() {
        let mut p = StridePrefetcher::new(2);
        assert!(p.observe(1, 0).next().is_none());
        assert!(p.observe(1, LINE_BYTES).next().is_none(), "first repeat: confidence 1");
        let pf: Vec<u64> = p.observe(1, 2 * LINE_BYTES).collect();
        assert_eq!(pf, vec![3 * LINE_BYTES, 4 * LINE_BYTES]);
    }

    #[test]
    fn column_walk_trains_pitch_stride() {
        // A column walk over a 2 KiB-pitch array: stride = 32 lines.
        let pitch = 32 * LINE_BYTES;
        let mut p = StridePrefetcher::new(1);
        p.observe(9, 0);
        p.observe(9, pitch);
        let pf: Vec<u64> = p.observe(9, 2 * pitch).collect();
        assert_eq!(pf, vec![3 * pitch]);
    }

    #[test]
    fn stride_change_resets_confidence() {
        let mut p = StridePrefetcher::new(1);
        p.observe(1, 0);
        p.observe(1, LINE_BYTES);
        p.observe(1, 2 * LINE_BYTES); // confident now
        assert!(p.observe(1, 10 * LINE_BYTES).next().is_none(), "stride broke");
        assert!(p.observe(1, 11 * LINE_BYTES).next().is_none(), "rebuilding confidence");
        assert!(p.observe(1, 12 * LINE_BYTES).next().is_some());
    }

    #[test]
    fn streams_are_independent() {
        let mut p = StridePrefetcher::new(1);
        for i in 0..3 {
            p.observe(1, i * LINE_BYTES);
        }
        // Stream 2 is untrained even though stream 1 is confident.
        assert!(p.observe(2, 0).next().is_none());
    }

    #[test]
    fn repeated_same_line_accesses_emit_nothing() {
        let mut p = StridePrefetcher::new(4);
        for _ in 0..10 {
            assert!(p.observe(3, 64).next().is_none());
        }
    }

    #[test]
    fn negative_stride_prefetches_clamp_at_zero() {
        let mut p = StridePrefetcher::new(4);
        p.observe(1, 10 * LINE_BYTES);
        p.observe(1, 8 * LINE_BYTES);
        p.observe(1, 6 * LINE_BYTES);
        let pf: Vec<u64> = p.observe(1, 4 * LINE_BYTES).collect();
        // Stride −2 lines: candidates 2, 0, −2, −4 → clamped to in-range.
        assert_eq!(pf, vec![2 * LINE_BYTES, 0]);
    }

    #[test]
    fn colliding_stream_ids_retrain_the_slot() {
        let mut p = StridePrefetcher::new(1);
        // Stream 1 becomes confident...
        for i in 0..3 {
            p.observe(1, i * LINE_BYTES);
        }
        // ...then stream 1 + 512 (same slot) takes over cold.
        assert!(p.observe(1 + TABLE_SLOTS as u32, 0).next().is_none());
        // Stream 1 must now retrain from scratch like any cold stream.
        assert!(p.observe(1, 3 * LINE_BYTES).next().is_none());
        assert!(p.observe(1, 4 * LINE_BYTES).next().is_none());
        assert!(p.observe(1, 5 * LINE_BYTES).next().is_some());
    }

    #[test]
    fn reset_clears_training() {
        let mut p = StridePrefetcher::new(1);
        for i in 0..3 {
            p.observe(1, i * LINE_BYTES);
        }
        p.reset();
        assert!(p.observe(1, 3 * LINE_BYTES).next().is_none(), "cold after reset");
    }
}

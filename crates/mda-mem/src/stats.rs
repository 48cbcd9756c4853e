//! Main-memory statistics.

use crate::addr::Orientation;

/// Counters accumulated by the memory controller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Line reads served.
    pub reads: u64,
    /// Line writes accepted.
    pub writes: u64,
    /// Row-mode reads.
    pub row_reads: u64,
    /// Column-mode reads.
    pub col_reads: u64,
    /// Reads that hit an open row/column buffer.
    pub buffer_hits: u64,
    /// Reads that required closing a conflicting buffer entry first.
    pub buffer_conflicts: u64,
    /// Array activations (row or column openings) performed for reads.
    pub activations: u64,
    /// Bytes moved from memory to the cache hierarchy.
    pub bytes_read: u64,
    /// Bytes moved from the cache hierarchy to memory.
    pub bytes_written: u64,
    /// Read stalls caused by write-queue drains (count of affected reads).
    pub write_drain_stalls: u64,
    /// Words observed with at least one raw bit fault (before ECC).
    pub raw_word_faults: u64,
    /// Words whose single-bit fault SECDED corrected.
    pub ecc_corrected_words: u64,
    /// Lines carrying at least one uncorrectable (multi-bit) word.
    pub uncorrectable_lines: u64,
    /// Write-verify retry attempts issued by the controller.
    pub write_retries: u64,
    /// Tiles remapped to a bank's spare region after an uncorrectable
    /// error.
    pub tiles_remapped: u64,
    /// Accesses that paid a remap-table lookup to reach a remapped tile.
    pub remap_lookups: u64,
    /// Uncorrectable errors that found the bank's spare region exhausted.
    pub spare_exhausted: u64,
}

impl MemStats {
    /// Total bytes moved on the memory channels, both directions.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Buffer hit rate over all reads, in `[0, 1]`; zero when idle.
    pub fn buffer_hit_rate(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.buffer_hits as f64 / self.reads as f64
        }
    }

    /// Total 8-byte words moved in either direction (the denominator for
    /// word-granular fault rates).
    pub fn words_accessed(&self) -> u64 {
        self.total_bytes() / crate::addr::WORD_BYTES
    }

    /// Raw (pre-ECC) word fault rate over all words accessed; zero when
    /// idle.
    pub fn raw_word_fault_rate(&self) -> f64 {
        let words = self.words_accessed();
        if words == 0 {
            0.0
        } else {
            self.raw_word_faults as f64 / words as f64
        }
    }

    /// True when any reliability event was recorded; gates the extra
    /// reliability line in rendered reports so fault-free output stays
    /// byte-identical.
    pub fn reliability_active(&self) -> bool {
        self.raw_word_faults != 0
            || self.ecc_corrected_words != 0
            || self.uncorrectable_lines != 0
            || self.write_retries != 0
            || self.tiles_remapped != 0
            || self.remap_lookups != 0
            || self.spare_exhausted != 0
    }

    /// Records a read in `orient`.
    pub(crate) fn note_read(&mut self, orient: Orientation, bytes: u64) {
        self.reads += 1;
        self.bytes_read += bytes;
        match orient {
            Orientation::Row => self.row_reads += 1,
            Orientation::Col => self.col_reads += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_idle_memory() {
        assert_eq!(MemStats::default().buffer_hit_rate(), 0.0);
    }

    #[test]
    fn note_read_splits_by_orientation() {
        let mut s = MemStats::default();
        s.note_read(Orientation::Row, 64);
        s.note_read(Orientation::Col, 64);
        s.note_read(Orientation::Col, 64);
        assert_eq!(s.reads, 3);
        assert_eq!(s.row_reads, 1);
        assert_eq!(s.col_reads, 2);
        assert_eq!(s.bytes_read, 192);
        assert_eq!(s.total_bytes(), 192);
        assert_eq!(s.words_accessed(), 24);
    }

    #[test]
    fn reliability_rates_handle_idle_memory() {
        let s = MemStats::default();
        assert_eq!(s.raw_word_fault_rate(), 0.0);
        assert!(!s.reliability_active());
    }

    #[test]
    fn reliability_active_notices_every_counter() {
        for i in 0..7 {
            let mut s = MemStats::default();
            match i {
                0 => s.raw_word_faults = 1,
                1 => s.ecc_corrected_words = 1,
                2 => s.uncorrectable_lines = 1,
                3 => s.write_retries = 1,
                4 => s.tiles_remapped = 1,
                5 => s.remap_lookups = 1,
                _ => s.spare_exhausted = 1,
            }
            assert!(s.reliability_active(), "counter {i} should flag activity");
        }
    }
}

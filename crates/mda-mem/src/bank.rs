//! Per-bank state: row buffer, column buffer, and busy-time reservation.
//!
//! Each crosspoint bank keeps **two** open buffers — one row buffer and one
//! column buffer (paper Fig. 2(b)/Fig. 3). A row-mode access hits when the
//! physical array row it needs is the one latched in the row buffer;
//! likewise for column-mode accesses and the column buffer. The two buffers
//! are independent (they latch bit-sliced data, paper Sec. III),
//! but the bank's sense/drive circuitry is shared, so all operations
//! serialize on the bank's `free_at` reservation.

use crate::addr::{LineKey, Orientation};
use crate::timing::MemTiming;
use crate::Cycle;

/// Identifier of a physical array row (or column) inside a bank.
///
/// A bank's array is tiled by 2-D blocks laid out on a grid that is
/// `tiles_per_array_row` blocks wide. Physical row `tile_row * 8 + r` spans
/// the `r`-th row line of every tile in that grid row; physical column
/// `tile_col * 8 + c` spans the `c`-th column line of every tile in that
/// grid column.
pub type BufferEntry = u64;

/// Classification of where an access was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferOutcome {
    /// The needed physical row/column was already open.
    Hit,
    /// The bank had a different entry open in this orientation; it had to be
    /// closed (precharged) first.
    Conflict,
    /// The buffer was empty (first access or after an explicit close).
    Empty,
}

/// State of one bank.
///
/// Each orientation keeps up to `sub_buffers` concurrently open entries
/// (LRU-replaced). One per orientation is the paper's default; the
/// multi-sub-buffer variant reproduces the Gulur et al. scheme the paper
/// examined in Sec. IX-B and found to have "a less than 1 % impact" on its
/// single-threaded workloads.
#[derive(Debug, Clone)]
pub struct Bank {
    open_rows: Vec<BufferEntry>,
    open_cols: Vec<BufferEntry>,
    sub_buffers: usize,
    free_at: Cycle,
    tiles_per_array_row: u64,
    /// Bank-local tiles that suffered an uncorrectable error and were
    /// remapped to the bank's spare region. Accesses to these tiles pay a
    /// remap-table lookup. Kept small (bounded by the configured spare
    /// capacity), so a linear scan is fine.
    remapped: Vec<u64>,
}

impl Bank {
    /// Creates an idle bank with `sub_buffers` open entries per orientation.
    ///
    /// # Panics
    /// Panics if `tiles_per_array_row` or `sub_buffers` is zero.
    pub fn with_sub_buffers(tiles_per_array_row: u64, sub_buffers: usize) -> Bank {
        assert!(tiles_per_array_row > 0);
        assert!(sub_buffers > 0, "at least one buffer per orientation");
        Bank {
            open_rows: Vec::with_capacity(sub_buffers),
            open_cols: Vec::with_capacity(sub_buffers),
            sub_buffers,
            free_at: 0,
            tiles_per_array_row,
            remapped: Vec::new(),
        }
    }

    /// True when `tile_in_bank` was remapped to the spare region.
    pub fn is_remapped(&self, tile_in_bank: u64) -> bool {
        self.remapped.contains(&tile_in_bank)
    }

    /// Remaps `tile_in_bank` to the spare region after an uncorrectable
    /// error. Returns `false` when the spare capacity is exhausted (the
    /// tile keeps operating degraded). Remapping an already-remapped tile
    /// is a no-op returning `true`.
    pub fn remap(&mut self, tile_in_bank: u64, spare_capacity: u32) -> bool {
        if self.is_remapped(tile_in_bank) {
            return true;
        }
        if self.remapped.len() >= spare_capacity as usize {
            return false;
        }
        self.remapped.push(tile_in_bank);
        true
    }

    /// Number of tiles this bank has remapped so far.
    #[cfg(test)]
    fn remapped_tiles(&self) -> usize {
        self.remapped.len()
    }

    /// The physical buffer entry needed to serve `line` in this bank, given
    /// the line's bank-local tile index.
    fn buffer_entry(&self, tile_in_bank: u64, line: &LineKey) -> BufferEntry {
        let tile_row = tile_in_bank / self.tiles_per_array_row;
        let tile_col = tile_in_bank % self.tiles_per_array_row;
        match line.orient {
            Orientation::Row => tile_row * 8 + u64::from(line.idx),
            Orientation::Col => tile_col * 8 + u64::from(line.idx),
        }
    }

    /// Cycle at which the bank can accept another operation.
    pub fn free_at(&self) -> Cycle {
        self.free_at
    }

    /// Pushes the bank-busy reservation forward (used by the controller for
    /// write drains).
    pub fn reserve_until(&mut self, cycle: Cycle) {
        self.free_at = self.free_at.max(cycle);
    }

    /// The most-recently-opened entry in `orient`, if any.
    #[cfg(test)]
    fn open_entry(&self, orient: Orientation) -> Option<BufferEntry> {
        let open = match orient {
            Orientation::Row => &self.open_rows,
            Orientation::Col => &self.open_cols,
        };
        open.last().copied()
    }

    fn buffers_mut(&mut self, orient: Orientation) -> &mut Vec<BufferEntry> {
        match orient {
            Orientation::Row => &mut self.open_rows,
            Orientation::Col => &mut self.open_cols,
        }
    }

    /// Looks up `entry` among the open buffers of `orient`, classifying the
    /// access and updating recency/replacement (the buffers are kept in
    /// LRU-to-MRU order).
    fn open_buffer(&mut self, orient: Orientation, entry: BufferEntry) -> BufferOutcome {
        let cap = self.sub_buffers;
        let bufs = self.buffers_mut(orient);
        if let Some(pos) = bufs.iter().position(|e| *e == entry) {
            bufs.remove(pos);
            bufs.push(entry);
            return BufferOutcome::Hit;
        }
        if bufs.len() < cap {
            bufs.push(entry);
            BufferOutcome::Empty
        } else {
            bufs.remove(0);
            bufs.push(entry);
            BufferOutcome::Conflict
        }
    }

    /// Serves one read of `line` (bank-local tile `tile_in_bank`) arriving at
    /// `start`. Returns the classification and the cycle at which the data is
    /// in the buffer ready for bus transfer. Updates open-buffer state and
    /// the bank reservation.
    pub fn serve_read(
        &mut self,
        tile_in_bank: u64,
        line: &LineKey,
        start: Cycle,
        timing: &MemTiming,
    ) -> (BufferOutcome, Cycle) {
        let entry = self.buffer_entry(tile_in_bank, line);
        let begin = start.max(self.free_at);
        let outcome = self.open_buffer(line.orient, entry);
        let ready = begin
            + match outcome {
                BufferOutcome::Hit => timing.hit_latency(),
                BufferOutcome::Conflict => timing.conflict_latency(),
                BufferOutcome::Empty => timing.closed_latency(),
            };
        self.free_at = ready;
        (outcome, ready)
    }

    /// Serves one write of `line` arriving at `start`. Writes go through the
    /// open buffer as well, then occupy the bank for the STT array-write
    /// service time. Returns the classification and the cycle at which the
    /// bank becomes free again.
    pub fn serve_write(
        &mut self,
        tile_in_bank: u64,
        line: &LineKey,
        start: Cycle,
        timing: &MemTiming,
    ) -> (BufferOutcome, Cycle) {
        let entry = self.buffer_entry(tile_in_bank, line);
        let begin = start.max(self.free_at);
        let outcome = self.open_buffer(line.orient, entry);
        let opened = begin
            + match outcome {
                BufferOutcome::Hit => 0,
                BufferOutcome::Conflict => timing.t_rp + timing.t_rcd,
                BufferOutcome::Empty => timing.t_rcd,
            };
        let done = opened + timing.t_write;
        self.free_at = done;
        (outcome, done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> MemTiming {
        MemTiming::stt()
    }

    #[test]
    fn first_access_opens_buffer() {
        let mut b = Bank::with_sub_buffers(128, 1);
        let line = LineKey::new(0, Orientation::Row, 3);
        let (o, ready) = b.serve_read(0, &line, 100, &t());
        assert_eq!(o, BufferOutcome::Empty);
        assert_eq!(ready, 100 + t().closed_latency());
        assert_eq!(b.open_entry(Orientation::Row), Some(3));
    }

    #[test]
    fn repeat_access_hits_buffer() {
        let mut b = Bank::with_sub_buffers(128, 1);
        let line = LineKey::new(0, Orientation::Row, 3);
        let (_, r1) = b.serve_read(0, &line, 0, &t());
        let (o, r2) = b.serve_read(0, &line, r1, &t());
        assert_eq!(o, BufferOutcome::Hit);
        assert_eq!(r2, r1 + t().hit_latency());
    }

    #[test]
    fn different_row_conflicts() {
        let mut b = Bank::with_sub_buffers(128, 1);
        b.serve_read(0, &LineKey::new(0, Orientation::Row, 3), 0, &t());
        let (o, _) = b.serve_read(0, &LineKey::new(0, Orientation::Row, 4), 1000, &t());
        assert_eq!(o, BufferOutcome::Conflict);
    }

    #[test]
    fn row_and_col_buffers_are_independent() {
        let mut b = Bank::with_sub_buffers(128, 1);
        b.serve_read(0, &LineKey::new(0, Orientation::Row, 3), 0, &t());
        let (o, _) = b.serve_read(0, &LineKey::new(0, Orientation::Col, 5), 1000, &t());
        // First column access: the column buffer was empty, and opening it
        // does not disturb the row buffer.
        assert_eq!(o, BufferOutcome::Empty);
        assert_eq!(b.open_entry(Orientation::Row), Some(3));
        assert_eq!(b.open_entry(Orientation::Col), Some(5));
    }

    #[test]
    fn adjacent_tiles_share_a_physical_row() {
        let b = Bank::with_sub_buffers(128, 1);
        // Tiles 0 and 1 sit side by side in the array: row line r of both
        // maps to the same physical row.
        let l0 = LineKey::new(0, Orientation::Row, 2);
        let l1 = LineKey::new(1, Orientation::Row, 2);
        assert_eq!(b.buffer_entry(0, &l0), b.buffer_entry(1, &l1));
        // But their column lines differ.
        let c0 = LineKey::new(0, Orientation::Col, 2);
        let c1 = LineKey::new(1, Orientation::Col, 2);
        assert_ne!(b.buffer_entry(0, &c0), b.buffer_entry(1, &c1));
    }

    #[test]
    fn vertically_adjacent_tiles_share_a_physical_column() {
        let b = Bank::with_sub_buffers(4, 1);
        // With 4 tiles per array row, bank-local tiles 0 and 4 are stacked
        // vertically: column line c of both maps to the same physical column.
        let c0 = LineKey::new(0, Orientation::Col, 1);
        let c4 = LineKey::new(0, Orientation::Col, 1);
        assert_eq!(b.buffer_entry(0, &c0), b.buffer_entry(4, &c4));
    }

    #[test]
    fn write_occupies_bank_for_write_service_time() {
        let mut b = Bank::with_sub_buffers(128, 1);
        let line = LineKey::new(0, Orientation::Row, 0);
        b.serve_read(0, &line, 0, &t());
        let free = b.free_at();
        let (o, done) = b.serve_write(0, &line, free, &t());
        assert_eq!(o, BufferOutcome::Hit);
        assert_eq!(done, free + t().t_write);
        assert_eq!(b.free_at(), done);
    }

    #[test]
    fn sub_buffers_keep_multiple_rows_open() {
        let mut b = Bank::with_sub_buffers(128, 2);
        let r3 = LineKey::new(0, Orientation::Row, 3);
        let r4 = LineKey::new(0, Orientation::Row, 4);
        b.serve_read(0, &r3, 0, &t());
        b.serve_read(0, &r4, 1000, &t());
        // With two sub-buffers, returning to row 3 still hits.
        let (o, _) = b.serve_read(0, &r3, 2000, &t());
        assert_eq!(o, BufferOutcome::Hit);
    }

    #[test]
    fn sub_buffers_replace_lru_entry() {
        let mut b = Bank::with_sub_buffers(128, 2);
        let rows: Vec<LineKey> = (3..6).map(|i| LineKey::new(0, Orientation::Row, i)).collect();
        b.serve_read(0, &rows[0], 0, &t());
        b.serve_read(0, &rows[1], 1000, &t());
        // Touch row 3 so row 4 becomes LRU, then open row 5.
        b.serve_read(0, &rows[0], 2000, &t());
        b.serve_read(0, &rows[2], 3000, &t());
        let (o3, _) = b.serve_read(0, &rows[0], 4000, &t());
        assert_eq!(o3, BufferOutcome::Hit, "row 3 survived");
        let (o4, _) = b.serve_read(0, &rows[1], 5000, &t());
        assert_eq!(o4, BufferOutcome::Conflict, "row 4 was the LRU victim");
    }

    #[test]
    #[should_panic(expected = "at least one buffer")]
    fn zero_sub_buffers_rejected() {
        let _ = Bank::with_sub_buffers(128, 0);
    }

    #[test]
    fn remap_honors_spare_capacity() {
        let mut b = Bank::with_sub_buffers(128, 1);
        assert!(!b.is_remapped(7));
        assert!(b.remap(7, 2));
        assert!(b.is_remapped(7));
        assert!(b.remap(7, 2), "re-remapping is a no-op");
        assert_eq!(b.remapped_tiles(), 1);
        assert!(b.remap(9, 2));
        assert!(!b.remap(11, 2), "spare region exhausted");
        assert_eq!(b.remapped_tiles(), 2);
    }

    #[test]
    fn busy_bank_delays_later_request() {
        let mut b = Bank::with_sub_buffers(128, 1);
        let line = LineKey::new(0, Orientation::Row, 0);
        let (_, r1) = b.serve_read(0, &line, 0, &t());
        // Request arriving "in the past" still starts only once free.
        let (_, r2) = b.serve_read(0, &line, 0, &t());
        assert_eq!(r2, r1 + t().hit_latency());
    }
}

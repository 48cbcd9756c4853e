//! Per-channel state: data-bus reservation and the posted write queue.

use crate::Cycle;

/// One memory channel: a shared data bus plus a write queue.
///
/// Writes are *posted*: the controller accepts them immediately and drains
/// them opportunistically, stalling reads only when the queue crosses its
/// high watermark (FRFCFS-WQF, paper Table I). The queue here tracks only
/// occupancy and aggregate drain work; per-request bank state is applied by
/// the controller when it issues the drain.
#[derive(Debug, Clone)]
pub struct Channel {
    bus_free_at: Cycle,
    queued_writes: usize,
}

impl Channel {
    /// Creates an idle channel.
    pub fn new() -> Channel {
        Channel { bus_free_at: 0, queued_writes: 0 }
    }

    /// Reserves the data bus for `burst` cycles starting no earlier than
    /// `earliest`. Returns `(start, end)` of the transfer.
    pub fn reserve_bus(&mut self, earliest: Cycle, burst: u64) -> (Cycle, Cycle) {
        let start = earliest.max(self.bus_free_at);
        let end = start + burst;
        self.bus_free_at = end;
        (start, end)
    }

    /// Number of writes currently queued.
    pub fn queued_writes(&self) -> usize {
        self.queued_writes
    }

    /// Enqueues one posted write.
    pub fn push_write(&mut self) {
        self.queued_writes += 1;
    }

    /// Removes up to `n` writes from the queue, returning how many were
    /// actually drained.
    pub fn drain_writes(&mut self, n: usize) -> usize {
        let drained = n.min(self.queued_writes);
        self.queued_writes -= drained;
        drained
    }
}

impl Default for Channel {
    fn default() -> Channel {
        Channel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bus_reservations_serialize() {
        let mut ch = Channel::new();
        let (s1, e1) = ch.reserve_bus(10, 16);
        assert_eq!((s1, e1), (10, 26));
        let (s2, e2) = ch.reserve_bus(0, 16);
        assert_eq!((s2, e2), (26, 42));
    }

    #[test]
    fn write_queue_tracks_occupancy() {
        let mut ch = Channel::new();
        for _ in 0..5 {
            ch.push_write();
        }
        assert_eq!(ch.queued_writes(), 5);
        assert_eq!(ch.drain_writes(3), 3);
        assert_eq!(ch.queued_writes(), 2);
        assert_eq!(ch.drain_writes(10), 2);
        assert_eq!(ch.queued_writes(), 0);
    }
}

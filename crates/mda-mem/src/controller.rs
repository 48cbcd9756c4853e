//! The memory controller: tile decode, bank/channel scheduling, posted
//! writes with watermark-based drains.
//!
//! This is the latency-forwarding stand-in for NVMain's FRFCFS-WQF
//! controller (see DESIGN.md §2 for the substitution argument). Reads are
//! serviced in arrival order against per-bank and per-channel resource
//! reservations; writes are posted into a per-channel queue that drains when
//! it crosses its high watermark, charging the drain work to the banks it
//! targets — the first-order behaviour of a write-queue-flush policy.

use crate::addr::{DecodedAddr, Orientation, LINE_WORDS};
use crate::bank::{Bank, BufferOutcome};
use crate::channel::Channel;
use crate::config::MemConfig;
use crate::faults::FaultState;
use crate::request::{MemCompletion, MemRequest, RequestKind};
use crate::stats::MemStats;
use crate::timing::MemTiming;
use crate::Cycle;

/// The MDA main memory: all channels, ranks and banks plus the controller
/// front-end.
///
/// See the crate-level documentation for an end-to-end example.
#[derive(Debug, Clone)]
pub struct MainMemory {
    config: MemConfig,
    banks: Vec<Bank>,
    channels: Vec<Channel>,
    stats: MemStats,
    faults: FaultState,
}

impl MainMemory {
    /// Creates the memory described by `config`.
    ///
    /// # Panics
    /// Panics if `config.validate()` fails; construct configurations through
    /// the provided presets or validate them first.
    pub fn new(config: MemConfig) -> MainMemory {
        if let Err(msg) = config.validate() {
            // mda-lint: allow(lib-unwrap): documented `# Panics` contract rejecting invalid configs
            panic!("invalid MemConfig: {msg}");
        }
        let banks = (0..config.total_banks())
            .map(|_| Bank::with_sub_buffers(config.tiles_per_array_row, config.sub_buffers))
            .collect();
        let channels = (0..config.channels).map(|_| Channel::new()).collect();
        let faults = FaultState::new(config.faults);
        MainMemory { config, banks, channels, stats: MemStats::default(), faults }
    }

    /// The configuration the memory was built with.
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Schedules a request arriving at `now` and returns its completion.
    pub fn access(&mut self, req: MemRequest, now: Cycle) -> MemCompletion {
        match req.kind {
            RequestKind::Read => self.read_req(req, now),
            RequestKind::Write => self.write_req(req, now),
        }
    }

    /// Convenience wrapper: full-line read of `line` at `now`.
    pub fn read(&mut self, line: crate::LineKey, now: Cycle) -> MemCompletion {
        self.access(MemRequest::read(line), now)
    }

    /// Convenience wrapper: posted writeback of `words` words of `line`.
    pub fn write(&mut self, line: crate::LineKey, words: u8, now: Cycle) -> MemCompletion {
        self.access(MemRequest::write(line, words), now)
    }

    fn bank_index(&self, d: &DecodedAddr) -> usize {
        (d.channel * self.config.ranks + d.rank) * self.config.banks + d.bank
    }

    fn decode(&self, tile: u64) -> DecodedAddr {
        DecodedAddr::decode(tile, self.config.channels, self.config.ranks, self.config.banks)
    }

    fn read_req(&mut self, req: MemRequest, now: Cycle) -> MemCompletion {
        let t = self.config.timing;
        let d = self.decode(req.line.tile);
        let bank_idx = self.bank_index(&d);

        let mut start = now + t.controller_latency;
        if req.line.orient == Orientation::Col {
            start += t.col_decode_extra;
        }
        if self.faults.enabled() && self.banks[bank_idx].is_remapped(d.tile_in_bank) {
            start += self.config.faults.remap_penalty;
            self.stats.remap_lookups += 1;
        }

        // Write-queue-flush: if this channel's queue is over the high
        // watermark, drain down to the low watermark before serving the read.
        let over =
            self.channels[d.channel].queued_writes().saturating_sub(self.config.write_queue_low);
        if self.channels[d.channel].queued_writes() >= self.config.write_queue_high {
            let drained = self.channels[d.channel].drain_writes(over);
            // Drained writes are spread over this channel's banks; charge the
            // average per-bank share to the target bank and the bus.
            let per_bank =
                (drained as u64).div_ceil((self.config.ranks * self.config.banks) as u64);
            let drain_cycles = per_bank * (t.t_write + t.burst);
            let free = self.banks[bank_idx].free_at().max(start) + drain_cycles;
            self.banks[bank_idx].reserve_until(free);
            self.stats.write_drain_stalls += 1;
        }

        let (outcome, mut data_ready) =
            self.banks[bank_idx].serve_read(d.tile_in_bank, &req.line, start, &t);
        match outcome {
            BufferOutcome::Hit => self.stats.buffer_hits += 1,
            BufferOutcome::Conflict => {
                self.stats.buffer_conflicts += 1;
                self.stats.activations += 1;
            }
            BufferOutcome::Empty => self.stats.activations += 1,
        }

        if self.faults.enabled() {
            let f = self.faults.sample_read(req.line.orient, LINE_WORDS as u32);
            self.stats.raw_word_faults += u64::from(f.raw());
            self.stats.ecc_corrected_words += u64::from(f.corrected);
            if f.uncorrectable > 0 {
                // Uncorrectable line: the controller re-reads the array
                // (one full activation) to rule out a transient disturb,
                // then retires the tile to the spare region.
                self.stats.uncorrectable_lines += 1;
                data_ready += t.closed_latency();
                self.banks[bank_idx].reserve_until(data_ready);
                self.degrade(bank_idx, d.tile_in_bank);
            }
        }

        let (bus_start, burst_done) = self.channels[d.channel].reserve_bus(data_ready, t.burst);
        self.stats.note_read(req.line.orient, req.bytes());

        MemCompletion {
            // Critical-word-first: the requester unblocks as soon as the
            // critical word arrives.
            done: bus_start + t.crit_word,
            burst_done,
            buffer_hit: outcome == BufferOutcome::Hit,
        }
    }

    fn write_req(&mut self, req: MemRequest, now: Cycle) -> MemCompletion {
        let t = self.config.timing;
        let d = self.decode(req.line.tile);
        let bank_idx = self.bank_index(&d);
        self.stats.writes += 1;
        self.stats.bytes_written += req.bytes();

        // Posted write: accepted immediately unless the queue is physically
        // full, in which case one entry must drain first.
        let mut accept = now + t.controller_latency;
        if self.faults.enabled() && self.banks[bank_idx].is_remapped(d.tile_in_bank) {
            accept += self.config.faults.remap_penalty;
            self.stats.remap_lookups += 1;
        }
        if self.channels[d.channel].queued_writes() >= self.config.write_queue_capacity {
            self.channels[d.channel].drain_writes(1);
            let (_, done) = self.banks[bank_idx].serve_write(d.tile_in_bank, &req.line, accept, &t);
            accept = done;
        }
        self.channels[d.channel].push_write();
        if self.faults.enabled() {
            self.verify_retry(bank_idx, d.tile_in_bank, &req, accept, &t);
        }
        MemCompletion { done: accept, burst_done: accept, buffer_hit: false }
    }

    /// Write-verify-retry (runs when the fault model is enabled): sample
    /// which words of the just-posted write failed to switch, retry them up
    /// to `max_write_retries` times with exponential backoff, and charge the
    /// retry cycles to the target bank so reliability costs surface as real
    /// contention. Words still failing after the last retry are left to ECC:
    /// single-bit residues are corrected, multi-bit residues retire the tile.
    fn verify_retry(
        &mut self,
        bank_idx: usize,
        tile_in_bank: u64,
        req: &MemRequest,
        accept: Cycle,
        t: &MemTiming,
    ) {
        let orient = req.line.orient;
        let mut failed = self.faults.sample_write_attempt(orient, u32::from(req.words));
        if failed == 0 {
            return;
        }
        self.stats.raw_word_faults += u64::from(failed);
        let fcfg = self.config.faults;
        let mut attempt = 0;
        let mut extra = 0u64;
        while failed > 0 && attempt < fcfg.max_write_retries {
            attempt += 1;
            extra += t.write_retry_cycles(attempt, fcfg.retry_backoff);
            self.stats.write_retries += 1;
            // Each retry rewrites only the still-failing words, each of
            // which fails again independently.
            failed = self.faults.sample_write_attempt(orient, failed);
            self.stats.raw_word_faults += u64::from(failed);
        }
        if extra > 0 {
            let free = self.banks[bank_idx].free_at().max(accept) + extra;
            self.banks[bank_idx].reserve_until(free);
        }
        if failed > 0 {
            let res = self.faults.classify_residual(orient, failed);
            self.stats.ecc_corrected_words += u64::from(res.corrected);
            if res.uncorrectable > 0 {
                self.stats.uncorrectable_lines += 1;
                self.degrade(bank_idx, tile_in_bank);
            }
        }
    }

    /// Graceful degradation after an uncorrectable error: remap the tile to
    /// the bank's spare region if capacity remains; otherwise record the
    /// exhaustion and keep running (the tile stays in service, degraded).
    fn degrade(&mut self, bank_idx: usize, tile_in_bank: u64) {
        if self.banks[bank_idx].is_remapped(tile_in_bank) {
            return;
        }
        if self.banks[bank_idx].remap(tile_in_bank, self.config.faults.spare_tiles_per_bank) {
            self.stats.tiles_remapped += 1;
        } else {
            self.stats.spare_exhausted += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LineKey, Orientation};

    fn mem() -> MainMemory {
        MainMemory::new(MemConfig::paper())
    }

    #[test]
    fn sequential_row_reads_hit_the_row_buffer() {
        let mut m = mem();
        // Tiles 0, 4, 8 … map to channel 0, same bank row when adjacent in
        // the bank. Read the same tile's same row twice.
        let line = LineKey::new(0, Orientation::Row, 0);
        let c1 = m.read(line, 0);
        let c2 = m.read(line, c1.burst_done);
        assert!(!c1.buffer_hit);
        assert!(c2.buffer_hit);
        assert!(c2.done - c1.burst_done < c1.done);
    }

    #[test]
    fn column_read_is_a_single_access() {
        let mut m = mem();
        let col = LineKey::new(0, Orientation::Col, 2);
        let c = m.read(col, 0);
        assert_eq!(m.stats().col_reads, 1);
        assert_eq!(m.stats().activations, 1);
        // One activation, one burst — not eight row openings.
        assert!(c.done < 1000);
    }

    #[test]
    fn column_read_pays_decoder_extra() {
        let mut row_mem = mem();
        let mut col_mem = mem();
        let r = row_mem.read(LineKey::new(0, Orientation::Row, 0), 0);
        let c = col_mem.read(LineKey::new(0, Orientation::Col, 0), 0);
        assert_eq!(c.done - r.done, MemConfig::paper().timing.col_decode_extra);
    }

    #[test]
    fn writes_are_posted() {
        let mut m = mem();
        let line = LineKey::new(0, Orientation::Row, 0);
        let c = m.write(line, 8, 0);
        assert_eq!(c.done, MemConfig::paper().timing.controller_latency);
        assert_eq!(m.stats().writes, 1);
        assert_eq!(m.stats().bytes_written, 64);
    }

    /// The first `n` tiles that decode to channel 0.
    fn tiles_on_channel_0(cfg: &MemConfig, n: usize) -> Vec<u64> {
        (0u64..)
            .filter(|t| {
                crate::DecodedAddr::decode(*t, cfg.channels, cfg.ranks, cfg.banks).channel == 0
            })
            .take(n)
            .collect()
    }

    #[test]
    fn write_queue_high_watermark_stalls_reads() {
        let mut m = mem();
        let cfg = *m.config();
        // Fill channel 0's write queue past the high watermark.
        for t in tiles_on_channel_0(&cfg, cfg.write_queue_high) {
            m.write(LineKey::new(t, Orientation::Row, 0), 8, 0);
        }
        let before = m.stats().write_drain_stalls;
        let slow = m.read(LineKey::new(0, Orientation::Row, 0), 0);
        assert_eq!(m.stats().write_drain_stalls, before + 1);

        let mut fresh = mem();
        let fast = fresh.read(LineKey::new(0, Orientation::Row, 0), 0);
        assert!(slow.done > fast.done);
    }

    #[test]
    fn full_write_queue_backpressures() {
        let mut m = mem();
        let cfg = *m.config();
        for t in tiles_on_channel_0(&cfg, cfg.write_queue_capacity) {
            m.write(LineKey::new(t, Orientation::Row, 0), 8, 0);
        }
        let c = m.write(LineKey::new(0, Orientation::Row, 0), 8, 0);
        assert!(c.done > cfg.timing.controller_latency);
    }

    #[test]
    fn channel_parallelism_beats_single_channel() {
        // Four reads to four different channels overlap; four to one channel
        // serialize on the bus.
        let mut m = mem();
        let mut spread_done = 0;
        for t in 0..4u64 {
            let c = m.read(LineKey::new(t, Orientation::Row, 0), 0);
            spread_done = spread_done.max(c.done);
        }
        let mut m2 = mem();
        let mut same_done = 0;
        for t in 0..4u64 {
            // Tiles 0,4,8,12 all land on channel 0, different banks share
            // the one bus.
            let c = m2.read(LineKey::new(t * 4, Orientation::Row, 0), 0);
            same_done = same_done.max(c.done);
        }
        assert!(spread_done < same_done);
    }

    #[test]
    #[should_panic(expected = "invalid MemConfig")]
    fn invalid_config_panics() {
        let mut cfg = MemConfig::paper();
        cfg.channels = 0;
        let _ = MainMemory::new(cfg);
    }

    use crate::faults::FaultConfig;

    #[test]
    fn zero_rate_fault_config_is_identical_to_default() {
        // A fault model with a seed but all-zero rates must not perturb a
        // single cycle or counter.
        let mut plain = MainMemory::new(MemConfig::paper());
        let mut seeded = MainMemory::new(
            MemConfig::paper().with_faults(FaultConfig::uniform(12345, 0.0, 0.0, 0.0)),
        );
        let mut now = 0;
        for t in 0..64u64 {
            let line = LineKey::new(
                t,
                if t % 2 == 0 { Orientation::Row } else { Orientation::Col },
                (t % 8) as u8,
            );
            let a = plain.read(line, now);
            let b = seeded.read(line, now);
            assert_eq!(a, b);
            let a = plain.write(line, 8, now);
            let b = seeded.write(line, 8, now);
            assert_eq!(a, b);
            now = a.burst_done;
        }
        assert_eq!(plain.stats(), seeded.stats());
        assert!(!plain.stats().reliability_active());
    }

    #[test]
    fn write_retries_occupy_the_bank() {
        // write_ber = 0.5 over 72-bit words makes every word fail its
        // verify, so every write retries max_write_retries times.
        let faulty_cfg = MemConfig::paper().with_faults(FaultConfig::uniform(1, 0.5, 0.0, 0.0));
        let mut faulty = MainMemory::new(faulty_cfg);
        let mut clean = MainMemory::new(MemConfig::paper());
        let line = LineKey::new(0, Orientation::Row, 0);
        faulty.write(line, 8, 0);
        clean.write(line, 8, 0);
        assert!(faulty.stats().write_retries > 0);
        assert!(faulty.stats().raw_word_faults > 0);
        // The retries must show up as bank occupancy: a follow-up read on
        // the same bank completes later than on the clean memory.
        let slow = faulty.read(line, 0);
        let fast = clean.read(line, 0);
        assert!(
            slow.done > fast.done,
            "retries should delay the next access ({} vs {})",
            slow.done,
            fast.done
        );
    }

    #[test]
    fn uncorrectable_read_remaps_tile_and_charges_lookups() {
        // Retention BER 0.5: every read sees multi-bit faults, so the very
        // first read retires its tile to the spare region.
        let cfg = MemConfig::paper().with_faults(FaultConfig::uniform(3, 0.0, 0.0, 0.5));
        let mut m = MainMemory::new(cfg);
        let line = LineKey::new(0, Orientation::Row, 0);
        m.read(line, 0);
        assert_eq!(m.stats().uncorrectable_lines, 1);
        assert_eq!(m.stats().tiles_remapped, 1);
        assert_eq!(m.stats().remap_lookups, 0, "remap happens after the first access");
        m.read(line, 10_000);
        assert_eq!(m.stats().remap_lookups, 1, "second access pays the remap lookup");
        // A remapped tile is not remapped again.
        assert_eq!(m.stats().tiles_remapped, 1);
    }

    #[test]
    fn spare_exhaustion_is_survivable() {
        let mut fc = FaultConfig::uniform(5, 0.0, 0.0, 0.9);
        fc.spare_tiles_per_bank = 2;
        let mut m = MainMemory::new(MemConfig::paper().with_faults(fc));
        // Touch many distinct tiles of bank 0 (tiles 0, 32, 64, … share a
        // bank under the paper's decode for 4ch×1rank×8banks).
        let cfg = *m.config();
        let mut tiles = (0u64..)
            .filter(|t| {
                let d = crate::DecodedAddr::decode(*t, cfg.channels, cfg.ranks, cfg.banks);
                d.channel == 0 && d.bank == 0
            })
            .take(6);
        let mut now = 0;
        for _ in 0..6 {
            let t = tiles.next().unwrap();
            let c = m.read(LineKey::new(t, Orientation::Row, 0), now);
            now = c.burst_done;
        }
        assert_eq!(m.stats().tiles_remapped, 2, "spare capacity bounds remaps");
        assert!(m.stats().spare_exhausted > 0, "overflow is counted, not fatal");
    }

    #[test]
    fn fixed_seed_reproduces_fault_sequence() {
        let cfg = MemConfig::paper().with_faults(FaultConfig::uniform(99, 1e-2, 1e-3, 1e-3));
        let run = || {
            let mut m = MainMemory::new(cfg);
            let mut now = 0;
            for t in 0..256u64 {
                let line = LineKey::new(t % 16, Orientation::Row, (t % 8) as u8);
                let c = m.read(line, now);
                m.write(line, 8, now);
                now = c.burst_done;
            }
            (*m.stats(), now)
        };
        assert_eq!(run(), run());
    }
}

// mda-lint: hot-path
//! The cache-hierarchy driver: wires cache levels, 2-D MSHRs, the baseline
//! prefetcher and the MDA main memory into one demand path.
//!
//! The driver owns the recursive miss handling: a demand access probes L1;
//! each miss allocates (or coalesces into) an MSHR, honours the 2-D
//! overlap-ordering constraint, requests the preferred-orientation line from
//! the level below, installs it on the way back up, and pushes policy- and
//! eviction-writebacks downward. Latency is accumulated along the critical
//! path (tag checks — including the extra sequential checks of Different-Set
//! 1P2L probes — MSHR stalls, bus/bank reservations, critical-word-first
//! memory access, and the on-chip-NVM write penalty of a 2P2L level).
//!
//! Every hierarchy is a **multi-programmed** one, and a single-core system
//! is its one-core case: the levels live in one pool and each core owns a
//! *path* (a sequence of pool indices from its private L1 down to the
//! shared LLC), so a shared level naturally appears on several paths.
//! `SystemConfig` builds both from one builder, and one simulation loop
//! (`run.rs`) steps every core through [`Hierarchy::step`]. Several cores
//! back the paper's Sec. IX-B discussion of parallel workloads.

use crate::core::Core;
use mda_cache::level::{Access, AccessWidth, Probe};
use mda_cache::mshr::MshrDecision;
use mda_cache::{CacheLevel, LevelKind, Mshr, StridePrefetcher, Writeback};
use mda_compiler::MemOp;
use mda_mem::{Cycle, LineKey, MainMemory, Orientation};

/// A cache hierarchy (one or more cores' paths over a pool of cache
/// levels) attached to an MDA main memory.
///
/// The level pool is a `Vec<LevelKind>` — every trait call on the demand
/// path statically dispatches — and fill/writeback/flush side effects land
/// in recycled scratch buffers, so a steady-state access performs no heap
/// allocation.
pub struct Hierarchy {
    levels: Vec<LevelKind>,
    mshrs: Vec<Mshr>,
    /// Per-core sequence of pool indices, L1 first. Shared levels (e.g. a
    /// common LLC) appear on several paths.
    paths: Vec<Vec<usize>>,
    prefetchers: Vec<Option<StridePrefetcher>>,
    mem: MainMemory,
    /// Recycled writeback scratch buffers: one per live recursion frame,
    /// returned (cleared, capacity kept) when the frame finishes.
    scratch: Vec<Vec<Writeback>>,
    /// One recycled [`Probe`] per recursion depth (frames at different
    /// positions never alias), so the per-access hot path re-zeroes nothing.
    probes: Vec<Probe>,
}

impl Hierarchy {
    /// Builds a single-core hierarchy from L1-to-LLC `levels`, an optional
    /// baseline prefetcher, and the main memory.
    ///
    /// # Panics
    /// Panics if no levels are supplied.
    pub fn new(
        mut levels: Vec<LevelKind>,
        prefetcher: Option<StridePrefetcher>,
        mem: MainMemory,
    ) -> Hierarchy {
        // One core whose private levels are everything above the LLC.
        let Some(llc) = levels.pop() else {
            // mda-lint: allow(lib-unwrap): documented `# Panics` contract rejecting an empty level list
            panic!("hierarchy needs at least one cache level");
        };
        Hierarchy::multicore(vec![levels], llc, vec![prefetcher], mem)
    }

    /// Builds a multi-programmed hierarchy: each core gets the private
    /// levels in `private_per_core[i]` (L1 first) and all cores share
    /// `shared_llc`. `prefetchers[i]` trains on core `i`'s L1 traffic.
    ///
    /// # Panics
    /// Panics if no cores are given or the prefetcher list length does not
    /// match the core count.
    pub fn multicore(
        private_per_core: Vec<Vec<LevelKind>>,
        shared_llc: LevelKind,
        prefetchers: Vec<Option<StridePrefetcher>>,
        mem: MainMemory,
    ) -> Hierarchy {
        assert!(!private_per_core.is_empty(), "need at least one core");
        assert_eq!(private_per_core.len(), prefetchers.len(), "one prefetcher slot per core");
        // The pool holds every private level in core order, then the LLC.
        let llc_idx = private_per_core.iter().map(Vec::len).sum::<usize>();
        let mut levels = Vec::with_capacity(llc_idx + 1);
        let mut paths = Vec::with_capacity(private_per_core.len());
        for privates in private_per_core {
            let mut path = Vec::with_capacity(privates.len() + 1);
            for l in privates {
                path.push(levels.len());
                levels.push(l);
            }
            path.push(llc_idx);
            paths.push(path);
        }
        levels.push(shared_llc);
        // mda-lint: allow(hot-path-alloc): constructor wiring, runs once per hierarchy
        let mshrs = levels.iter().map(|l| Mshr::new(l.config().mshrs)).collect();
        let probes = vec![Probe::hit(); levels.len()];
        // mda-lint: allow(hot-path-alloc): empty pool; demand-path buffers are recycled
        Hierarchy { levels, mshrs, paths, prefetchers, mem, scratch: Vec::new(), probes }
    }

    /// Borrows a cleared writeback buffer from the recycled pool (or makes
    /// a fresh one on the first few uses — the pool quickly saturates at
    /// the maximum recursion depth and allocation stops).
    fn take_scratch(&mut self) -> Vec<Writeback> {
        self.scratch.pop().unwrap_or_default()
    }

    /// Returns a scratch buffer to the pool, keeping its capacity.
    fn put_scratch(&mut self, mut buf: Vec<Writeback>) {
        buf.clear();
        self.scratch.push(buf);
    }

    /// Number of cores (paths).
    #[cfg(test)]
    fn num_cores(&self) -> usize {
        self.paths.len()
    }

    /// The level pool. For a single-core hierarchy this is the path from L1
    /// to the LLC; for a multi-programmed one it is every private level in
    /// core order followed by the shared LLC (last entry).
    pub fn levels(&self) -> &[LevelKind] {
        &self.levels
    }

    /// The pool indices of `core`'s path, L1 first.
    #[cfg(test)]
    fn path_of(&self, core: usize) -> &[usize] {
        &self.paths[core]
    }

    /// The main memory.
    pub fn memory(&self) -> &MainMemory {
        &self.mem
    }

    /// Decomposes the hierarchy into its level pool, for callers that
    /// drive the levels directly.
    pub fn into_levels(self) -> Vec<LevelKind> {
        self.levels
    }

    /// Converts a compiler [`MemOp`] into a cache [`Access`].
    fn to_access(op: &MemOp) -> Access {
        Access {
            word: op.word,
            orient: op.orient,
            width: if op.vector { AccessWidth::Vector } else { AccessWidth::Scalar },
            is_write: op.write,
            stream: op.stream,
        }
    }

    /// Runs one demand operation from core 0 at `now` (single-core API).
    pub fn demand(&mut self, op: &MemOp, now: Cycle) -> Cycle {
        self.demand_from(0, op, now)
    }

    /// Runs one demand operation issued by `core` at `now`; returns its
    /// completion cycle.
    pub fn demand_from(&mut self, core: usize, op: &MemOp, now: Cycle) -> Cycle {
        let acc = Self::to_access(op);
        let done = self.access_at(core, 0, &acc, now);

        // The baseline prefetcher trains on L1 demand traffic (row-line
        // granular) and fetches ahead without blocking the demand path.
        if let Some(pf) = self.prefetchers[core].as_mut() {
            let line_addr = LineKey::containing(acc.word, Orientation::Row).base_addr();
            let targets = pf.observe(acc.stream, line_addr);
            for t in targets {
                self.prefetch(
                    core,
                    LineKey::containing(mda_mem::WordAddr(t), Orientation::Row),
                    now,
                );
            }
        }
        done
    }

    /// Demand (or internal fill) access at position `pos` of `core`'s path;
    /// returns the completion cycle.
    fn access_at(&mut self, core: usize, pos: usize, acc: &Access, now: Cycle) -> Cycle {
        let level = self.paths[core][pos];
        // Only these three scalars of the configuration matter here; pulling
        // them out keeps the recursion frame small.
        let (tag_latency, data_latency, write_penalty, hit_latency) = {
            let cfg = self.levels[level].config();
            (cfg.tag_latency, cfg.data_latency, cfg.write_penalty, cfg.hit_latency())
        };
        // The probe result lands in a per-depth recycled buffer; all
        // recursion from this frame goes to `pos + 1`, so the slot is stable
        // for the whole frame and small pieces are copied out as needed.
        {
            let (levels, probes) = (&mut self.levels, &mut self.probes);
            levels[level].probe_into(acc, &mut probes[pos]);
        }
        let hit = self.probes[pos].hit;
        let extra_tag_accesses = self.probes[pos].extra_tag_accesses;

        // Tag/data pipeline of this level plus any extra sequential tag
        // checks (paper Sec. VI-A), plus the NVM write penalty on write
        // hits to a physically 2-D level.
        let mut latency = hit_latency + u64::from(extra_tag_accesses) * tag_latency;
        if hit && acc.is_write {
            latency += write_penalty;
        }

        // Policy-forced writebacks (duplicate handling) go downward.
        for i in 0..self.probes[pos].writebacks.len() {
            let wb = self.probes[pos].writebacks[i];
            self.writeback(core, pos + 1, &wb, now);
        }

        if hit {
            // A hit on a line whose fill is still outstanding inherits the
            // fill's completion time (secondary-miss coalescing).
            let mut done = now + latency;
            let preferred = acc.preferred_line();
            let mut pending = self.mshrs[level].pending_completion(&preferred, now);
            if pending.is_none() && acc.width == AccessWidth::Scalar {
                let other = preferred.intersecting_at(acc.word);
                pending = self.mshrs[level].pending_completion(&other, now);
            }
            if let Some(completes) = pending {
                if completes > done {
                    done = completes;
                    self.levels[level].stats_mut().mshr_coalesced += 1;
                }
            }
            return done;
        }

        // Miss: MSHR allocation / coalescing / ordering.
        let is_write = acc.is_write;
        let demand_line = self.probes[pos].fills[0];
        let after_tags = now + latency;
        let (issue_at, stalled) = match self.mshrs[level].on_miss(demand_line, is_write, after_tags)
        {
            MshrDecision::Coalesced { completes } => {
                self.levels[level].stats_mut().mshr_coalesced += 1;
                // The line was evicted while its fill entry is still in
                // flight; re-install it from the in-flight data (no new
                // transfer) and apply the write's dirty words.
                let dirty = if is_write { Self::written_mask(acc, &demand_line) } else { 0 };
                let mut wbs = self.take_scratch();
                self.levels[level].fill(demand_line, dirty, &mut wbs);
                for wb in &wbs {
                    self.writeback(core, pos + 1, wb, now);
                }
                self.put_scratch(wbs);
                return completes.max(after_tags) + data_latency;
            }
            MshrDecision::Allocated { issue_at, ready_at } => (issue_at, ready_at > after_tags),
        };
        if stalled {
            self.levels[level].stats_mut().mshr_stalls += 1;
        }

        // Fetch the demand line from below (critical), then any dense-fill
        // companions (they consume bandwidth but are off the critical path).
        let below_done = self.fetch_from_below(core, pos, demand_line, issue_at);
        let mut wbs = self.take_scratch();
        let num_fills = self.probes[pos].fills.len();
        for i in 1..num_fills {
            let extra = self.probes[pos].fills[i];
            self.fetch_from_below(core, pos, extra, below_done);
            self.levels[level].fill(extra, 0, &mut wbs);
            for wb in &wbs {
                self.writeback(core, pos + 1, wb, below_done);
            }
            wbs.clear();
        }

        // Install the demand line; a write-allocate pre-dirties the written
        // words.
        let dirty = if is_write { Self::written_mask(acc, &demand_line) } else { 0 };
        self.levels[level].fill(demand_line, dirty, &mut wbs);
        for wb in &wbs {
            self.writeback(core, pos + 1, wb, below_done);
        }
        self.put_scratch(wbs);
        self.levels[level].stats_mut().bytes_from_below += mda_mem::LINE_BYTES;

        let mut done = below_done + data_latency;
        if write_penalty > 0 {
            // Filling a physically 2-D array is a write into NVM.
            done += write_penalty;
        }
        self.mshrs[level].complete(demand_line, is_write, done);
        done
    }

    /// Which words of `line` the (write) access modifies.
    fn written_mask(acc: &Access, line: &LineKey) -> u8 {
        match acc.width {
            AccessWidth::Vector => 0xFF,
            AccessWidth::Scalar => line.offset_of(acc.word).map(|off| 1u8 << off).unwrap_or(0),
        }
    }

    /// Requests `line` from the level below position `pos` on `core`'s path
    /// (or memory), returning the completion cycle of the critical word.
    fn fetch_from_below(&mut self, core: usize, pos: usize, line: LineKey, now: Cycle) -> Cycle {
        if pos + 1 == self.paths[core].len() {
            let completion = self.mem.read(line, now);
            completion.done
        } else {
            // A line-granular fill request is a vector read at the lower
            // level.
            let acc = Access::vector_read(line, u32::MAX);
            self.access_at(core, pos + 1, &acc, now)
        }
    }

    /// Sends a dirty line from position `pos - 1` down into position `pos`
    /// of `core`'s path (or memory).
    fn writeback(&mut self, core: usize, pos: usize, wb: &Writeback, now: Cycle) {
        if pos == self.paths[core].len() {
            self.mem.write(wb.line, wb.words(), now);
            return;
        }
        let level = self.paths[core][pos];
        let upper = self.paths[core][pos - 1];
        self.levels[upper].stats_mut().bytes_to_below +=
            u64::from(wb.words()) * mda_mem::WORD_BYTES;
        let mut cascades = self.take_scratch();
        if !self.levels[level].absorb_writeback(wb, &mut cascades) {
            // Write-allocate the victim: install it (sparsely for a 2P2L
            // level) and cascade any evictions further down.
            self.levels[level].fill(wb.line, wb.dirty, &mut cascades);
        }
        for c in &cascades {
            self.writeback(core, pos + 1, c, now);
        }
        self.put_scratch(cascades);
    }

    /// Issues a non-blocking prefetch of `line` into `core`'s L1 (and the
    /// levels below, on its way up).
    fn prefetch(&mut self, core: usize, line: LineKey, now: Cycle) {
        let l1 = self.paths[core][0];
        if self.levels[l1].contains_line(&line) {
            return;
        }
        match self.mshrs[l1].on_miss(line, false, now) {
            MshrDecision::Coalesced { .. } => {}
            MshrDecision::Allocated { issue_at, .. } => {
                let done = self.fetch_from_below(core, 0, line, issue_at);
                let mut wbs = self.take_scratch();
                self.levels[l1].fill(line, 0, &mut wbs);
                for wb in &wbs {
                    self.writeback(core, 1, wb, done);
                }
                self.put_scratch(wbs);
                self.levels[l1].stats_mut().prefetch_fills += 1;
                self.levels[l1].stats_mut().bytes_from_below += mda_mem::LINE_BYTES;
                self.mshrs[l1].complete(line, false, done);
            }
        }
    }

    /// Flushes every level, pushing dirty data to memory (used between
    /// benchmark phases in tests). Shared levels are flushed once, after
    /// every private level above them.
    pub fn flush_all(&mut self, now: Cycle) {
        // Flush by path position (all L1s, then all L2s, …) so a shared
        // level is only drained after every private level above it.
        let max_depth = self.paths.iter().map(Vec::len).max().unwrap_or(0);
        let mut flushed = vec![false; self.levels.len()];
        for pos in 0..max_depth {
            for core in 0..self.paths.len() {
                let Some(&level) = self.paths[core].get(pos) else { continue };
                if flushed[level] {
                    continue;
                }
                flushed[level] = true;
                let mut wbs = self.take_scratch();
                self.levels[level].flush(&mut wbs);
                for wb in &wbs {
                    self.writeback(core, pos + 1, wb, now);
                }
                self.put_scratch(wbs);
            }
        }
    }

    /// Drives core `idx` (`core` is its execution state) with one trace
    /// operation.
    pub fn step(&mut self, idx: usize, core: &mut Core, op: &mda_compiler::TraceOp) {
        match op {
            mda_compiler::TraceOp::Compute(n) => core.issue_compute(*n),
            mda_compiler::TraceOp::Mem(m) => core.issue_mem(|at| self.demand_from(idx, m, at)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mda_cache::level::CacheLevelExt;
    use mda_cache::{Cache1P1L, Cache1P2L, Cache2P2L, CacheConfig, SetMapping};
    use mda_mem::{MemConfig, WordAddr};

    fn small(cfg_bytes: u64) -> CacheConfig {
        let mut c = CacheConfig::l1_32k();
        c.size_bytes = cfg_bytes;
        c
    }

    fn two_level_1p2l() -> Hierarchy {
        let l1 = Cache1P2L::new(small(4096), SetMapping::DifferentSet);
        let mut l2cfg = CacheConfig::l2_256k();
        l2cfg.size_bytes = 16 * 1024;
        let l2 = Cache1P2L::new(l2cfg, SetMapping::DifferentSet);
        Hierarchy::new(vec![l1.into(), l2.into()], None, MainMemory::new(MemConfig::paper()))
    }

    fn op(word: WordAddr, orient: Orientation, vector: bool, write: bool) -> MemOp {
        MemOp { word, orient, vector, write, stream: 0 }
    }

    #[test]
    fn miss_then_hit_is_faster() {
        let mut h = two_level_1p2l();
        let o = op(WordAddr::from_tile_coords(0, 0, 0), Orientation::Row, false, false);
        let t_miss = h.demand(&o, 0);
        let t0 = t_miss + 100;
        let t_hit = h.demand(&o, t0) - t0;
        assert!(t_hit < t_miss, "hit {t_hit} should beat cold miss {t_miss}");
        assert_eq!(h.levels()[0].stats().hits, 1);
        assert_eq!(h.levels()[0].stats().misses, 1);
    }

    #[test]
    fn fill_installs_in_all_levels() {
        let mut h = two_level_1p2l();
        let line = LineKey::new(3, Orientation::Col, 2);
        let o = op(line.word_at(0), Orientation::Col, true, false);
        h.demand(&o, 0);
        assert!(h.levels()[0].contains_line(&line));
        assert!(h.levels()[1].contains_line(&line));
        assert_eq!(h.memory().stats().col_reads, 1);
    }

    #[test]
    fn column_vector_miss_reads_memory_in_column_mode() {
        let mut h = two_level_1p2l();
        let line = LineKey::new(7, Orientation::Col, 5);
        let o =
            MemOp { word: line.word_at(0), orient: Orientation::Col, vector: true, write: false, stream: 1 };
        h.demand(&o, 0);
        assert_eq!(h.memory().stats().col_reads, 1);
        assert_eq!(h.memory().stats().row_reads, 0);
    }

    #[test]
    fn dirty_eviction_reaches_memory() {
        let mut h = two_level_1p2l();
        let line = LineKey::new(0, Orientation::Row, 0);
        let w = op(line.word_at(0), Orientation::Row, false, true);
        h.demand(&w, 0);
        h.flush_all(10_000);
        assert_eq!(h.memory().stats().writes, 1);
        // Per-word dirty bits: only the written word travels.
        assert_eq!(h.memory().stats().bytes_written, 8);
    }

    #[test]
    fn coalesced_misses_do_not_duplicate_memory_reads() {
        let mut h = two_level_1p2l();
        let line = LineKey::new(2, Orientation::Row, 1);
        // Two scalar reads of different words in the same line, issued
        // back-to-back (the second lands while the first is outstanding).
        let o1 = op(line.word_at(0), Orientation::Row, false, false);
        let o2 = op(line.word_at(3), Orientation::Row, false, false);
        let d1 = h.demand(&o1, 0);
        let _d2 = h.demand(&o2, 1);
        assert!(d1 > 1);
        assert_eq!(h.memory().stats().reads, 1, "second miss coalesced in the MSHR");
        assert_eq!(h.levels()[0].stats().mshr_coalesced, 1);
    }

    #[test]
    fn prefetcher_reduces_demand_miss_latency() {
        // Baseline 1P1L with prefetching: a unit-stride walk should see
        // later lines arrive before the demand.
        let l1 = Cache1P1L::new(small(4096));
        let mut l2cfg = CacheConfig::l2_256k();
        l2cfg.size_bytes = 16 * 1024;
        let l2 = Cache1P1L::new(l2cfg);
        let mut h = Hierarchy::new(
            vec![l1.into(), l2.into()],
            Some(StridePrefetcher::new(4)),
            MainMemory::new(MemConfig::paper()),
        );
        let mut now = 0;
        for i in 0..16u64 {
            let word = WordAddr(i * 64);
            let o = MemOp { word, orient: Orientation::Row, vector: true, write: false, stream: 9 };
            now = h.demand(&o, now) + 1;
        }
        assert!(h.levels()[0].stats().prefetch_fills > 0);
        let s = h.levels()[0].stats();
        assert!(s.hits > 0, "prefetched lines turn later demands into hits");
    }

    #[test]
    fn writeback_to_absent_2p2l_block_allocates_sparsely() {
        // L1 = 1P2L, LLC = 2P2L. Evicting a dirty line whose block is not
        // in the LLC must allocate the block sparsely (paper Sec. IV-C,
        // Design 2 discussion).
        let l1 = Cache1P2L::new(small(4096), SetMapping::DifferentSet);
        let mut llc_cfg = CacheConfig::l3(16 * 1024);
        llc_cfg.assoc = 8;
        let llc = Cache2P2L::new(llc_cfg);
        let mut h =
            Hierarchy::new(vec![l1.into(), llc.into()], None, MainMemory::new(MemConfig::paper()));
        let line = LineKey::new(0, Orientation::Col, 3);
        let w = op(line.word_at(0), Orientation::Col, true, true);
        h.demand(&MemOp { vector: true, ..w }, 0);
        // Flush only L1 so its dirty line lands in the LLC.
        let wbs = h.levels[0].flush_collect();
        for wb in wbs {
            h.writeback(0, 1, &wb, 1_000_000);
        }
        assert!(h.levels()[1].contains_line(&line), "LLC allocated the block sparsely");
    }

    #[test]
    fn step_drives_core_and_hierarchy() {
        let mut h = two_level_1p2l();
        let mut core = Core::new(crate::core::CoreConfig::paper());
        let line = LineKey::new(0, Orientation::Row, 0);
        h.step(0, &mut core, &mda_compiler::TraceOp::Compute(4));
        h.step(
            0,
            &mut core,
            &mda_compiler::TraceOp::Mem(op(line.word_at(0), Orientation::Row, false, false)),
        );
        let t = core.finish();
        assert!(t > 0);
        assert_eq!(h.levels()[0].stats().accesses, 1);
    }

    fn two_core_shared_llc() -> Hierarchy {
        let privates: Vec<Vec<LevelKind>> = (0..2)
            .map(|_| vec![Cache1P2L::new(small(4096), SetMapping::DifferentSet).into()])
            .collect();
        let mut llc_cfg = CacheConfig::l3(16 * 1024);
        llc_cfg.assoc = 8;
        let llc = Cache1P2L::new(llc_cfg, SetMapping::DifferentSet);
        Hierarchy::multicore(
            privates,
            llc.into(),
            vec![None, None],
            MainMemory::new(MemConfig::paper()),
        )
    }

    #[test]
    fn multicore_paths_share_the_llc() {
        let mut h = two_core_shared_llc();
        assert_eq!(h.num_cores(), 2);
        assert_eq!(h.path_of(0), &[0, 2]);
        assert_eq!(h.path_of(1), &[1, 2]);

        // Core 0 fetches a line; core 1 then hits it in the shared LLC
        // without a second memory read.
        let line = LineKey::new(5, Orientation::Row, 1);
        let o = op(line.word_at(0), Orientation::Row, true, false);
        h.demand_from(0, &o, 0);
        assert_eq!(h.memory().stats().reads, 1);
        h.demand_from(1, &o, 10_000);
        assert_eq!(h.memory().stats().reads, 1, "shared LLC served core 1");
        assert!(h.levels()[1].contains_line(&line), "core 1's private L1 filled");
        assert_eq!(h.levels()[2].stats().accesses, 2, "both cores reached the LLC");
    }

    #[test]
    fn multicore_private_levels_are_isolated() {
        let mut h = two_core_shared_llc();
        let line = LineKey::new(9, Orientation::Col, 4);
        let o = op(line.word_at(0), Orientation::Col, true, false);
        h.demand_from(0, &o, 0);
        assert!(h.levels()[0].contains_line(&line), "core 0's L1 has it");
        assert!(!h.levels()[1].contains_line(&line), "core 1's L1 does not");
    }

    #[test]
    fn multicore_flush_drains_every_level_once() {
        let mut h = two_core_shared_llc();
        for core in 0..2u64 {
            let line = LineKey::new(100 + core, Orientation::Row, 0);
            let w = op(line.word_at(0), Orientation::Row, true, true);
            h.demand_from(core as usize, &w, 0);
        }
        h.flush_all(1_000_000);
        assert_eq!(h.memory().stats().writes, 2, "both cores' dirty lines reached memory");
        for level in h.levels() {
            assert_eq!(level.occupancy().0 + level.occupancy().1, 0);
        }
    }
}

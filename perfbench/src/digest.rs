//! Output digests: a 64-bit FNV-1a hash over an explicitly named field list
//! of a simulation report, so a later change that adds report fields does
//! not invalidate the stored references.

use mda_cache::CacheStats;
use mda_compiler::trace::OpCounts;
use mda_mem::MemStats;
use mda_sim::SimReport;

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, values: &[u64]) {
        for v in values {
            for b in v.to_le_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
}

fn ops_fields(o: &OpCounts) -> [u64; 4] {
    [o.mem_ops, o.vector_mem_ops, o.compute_uops, o.bytes]
}

fn cache_fields(s: &CacheStats) -> [u64; 19] {
    [
        s.accesses,
        s.hits,
        s.misses,
        s.row_scalar,
        s.row_vector,
        s.col_scalar,
        s.col_vector,
        s.misoriented_hits,
        s.demand_fills,
        s.prefetch_fills,
        s.writebacks_out,
        s.dup_evictions,
        s.dup_writebacks,
        s.duplications,
        s.extra_tag_accesses,
        s.mshr_coalesced,
        s.mshr_stalls,
        s.bytes_from_below,
        s.bytes_to_below,
    ]
}

fn mem_fields(m: &MemStats) -> [u64; 17] {
    [
        m.reads,
        m.writes,
        m.row_reads,
        m.col_reads,
        m.buffer_hits,
        m.buffer_conflicts,
        m.activations,
        m.bytes_read,
        m.bytes_written,
        m.write_drain_stalls,
        m.raw_word_faults,
        m.ecc_corrected_words,
        m.uncorrectable_lines,
        m.write_retries,
        m.tiles_remapped,
        m.remap_lookups,
        m.spare_exhausted,
    ]
}

/// Digest of cycles, op counts, every level's cache statistics and the
/// memory statistics.
pub fn of_parts<'a>(
    cycles: u64,
    ops: &OpCounts,
    levels: impl IntoIterator<Item = &'a CacheStats>,
    mem: &MemStats,
) -> u64 {
    let mut h = Fnv::new();
    h.add(&[cycles]);
    h.add(&ops_fields(ops));
    for s in levels {
        h.add(&cache_fields(s));
    }
    h.add(&mem_fields(mem));
    h.0
}

/// [`of_parts`] of a whole report.
pub fn of_report(r: &SimReport) -> u64 {
    of_parts(r.cycles, &r.ops, &r.levels, &r.mem)
}

/// Digest of the seed-independent part of a report: the op counts and the
/// L1 demand accesses (one per trace memory op).
pub fn of_ops(r: &SimReport) -> u64 {
    let mut h = Fnv::new();
    h.add(&ops_fields(&r.ops));
    h.add(&[r.levels.first().map_or(0, |l| l.accesses)]);
    h.0
}

//! Simulation reports: everything the paper's figures are plotted from.

use crate::occupancy::OccupancyTimeline;
use mda_cache::CacheStats;
use mda_compiler::trace::OpCounts;
use mda_mem::{Cycle, MemStats};

/// The outcome of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Workload name.
    pub workload: String,
    /// Design-point label (e.g. `1P2L`).
    pub design: String,
    /// Total execution cycles.
    pub cycles: Cycle,
    /// Per-cache-level statistics, L1 first.
    pub levels: Vec<CacheStats>,
    /// Main-memory statistics.
    pub mem: MemStats,
    /// Trace operation counts.
    pub ops: OpCounts,
    /// Column-occupancy timeline (empty unless sampling was enabled).
    pub occupancy: OccupancyTimeline,
}

impl SimReport {
    /// L1 demand hit rate.
    pub fn l1_hit_rate(&self) -> f64 {
        self.levels.first().map(CacheStats::hit_rate).unwrap_or(0.0)
    }

    /// Statistics of the last-level cache.
    fn llc(&self) -> &CacheStats {
        // mda-lint: allow(lib-unwrap): structural invariant; a hierarchy always has at least one level
        self.levels.last().expect("at least one level")
    }

    /// Demand accesses arriving at the LLC (the paper's "L3 accesses").
    pub fn llc_accesses(&self) -> u64 {
        self.llc().accesses
    }

    /// Bytes exchanged between the LLC and main memory (the paper's
    /// "L3-memory transfer").
    pub fn llc_memory_bytes(&self) -> u64 {
        self.mem.total_bytes()
    }

    /// `self.cycles / baseline.cycles` — the paper's normalized total
    /// cycles.
    pub fn normalized_cycles(&self, baseline: &SimReport) -> f64 {
        if baseline.cycles == 0 {
            0.0
        } else {
            self.cycles as f64 / baseline.cycles as f64
        }
    }
}

impl SimReport {
    /// Renders a human-readable multi-line summary of the run.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;

        // `write!` into one buffer: no intermediate `String` per line.
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} on {}: {} cycles, {} memory µops ({} vector), {} compute µops",
            self.workload,
            self.design,
            self.cycles,
            self.ops.mem_ops,
            self.ops.vector_mem_ops,
            self.ops.compute_uops
        );
        for (i, lvl) in self.levels.iter().enumerate() {
            let _ = writeln!(
                out,
                "  L{}: {:>10} accesses, {:>5.1}% hits, {:>8} fills ({} prefetch), \
                 {:>6} KB from below, {:>6} KB to below",
                i + 1,
                lvl.accesses,
                lvl.hit_rate() * 100.0,
                lvl.demand_fills + lvl.prefetch_fills,
                lvl.prefetch_fills,
                lvl.bytes_from_below / 1024,
                lvl.bytes_to_below / 1024,
            );
        }
        let _ = writeln!(
            out,
            "  mem: {} reads ({} row / {} col, {:.1}% buffer hits), {} writes, {} KB total",
            self.mem.reads,
            self.mem.row_reads,
            self.mem.col_reads,
            self.mem.buffer_hit_rate() * 100.0,
            self.mem.writes,
            self.mem.total_bytes() / 1024,
        );
        // Only rendered when the fault model actually fired, so fault-free
        // runs stay byte-identical to the original report format.
        if self.mem.reliability_active() {
            let _ = writeln!(
                out,
                "  reliability: {} raw word faults (BER {:.2e}), {} ECC-corrected, \
                 {} uncorrectable lines, {} write retries, {} tiles remapped \
                 ({} remap lookups)",
                self.mem.raw_word_faults,
                self.mem.raw_word_fault_rate(),
                self.mem.ecc_corrected_words,
                self.mem.uncorrectable_lines,
                self.mem.write_retries,
                self.mem.tiles_remapped,
                self.mem.remap_lookups,
            );
        }
        out
    }
}

impl std::fmt::Display for SimReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cycles: u64, llc_accesses: u64) -> SimReport {
        let llc = CacheStats { accesses: llc_accesses, ..CacheStats::default() };
        SimReport {
            workload: "w".into(),
            design: "d".into(),
            cycles,
            levels: vec![CacheStats::default(), llc],
            mem: MemStats::default(),
            ops: OpCounts::default(),
            occupancy: OccupancyTimeline::new(),
        }
    }

    #[test]
    fn render_mentions_every_section() {
        let r = report(1234, 9);
        let out = r.render();
        assert!(out.contains("1234 cycles"));
        assert!(out.contains("L1:"));
        assert!(out.contains("L2:"));
        assert!(out.contains("mem:"));
        assert_eq!(out, format!("{r}"));
    }

    #[test]
    fn reliability_line_only_renders_when_faults_fired() {
        let clean = report(100, 1);
        assert!(!clean.render().contains("reliability:"));
        let mut faulty = report(100, 1);
        faulty.mem.raw_word_faults = 5;
        faulty.mem.ecc_corrected_words = 4;
        faulty.mem.write_retries = 2;
        let out = faulty.render();
        assert!(out.contains("reliability:"));
        assert!(out.contains("5 raw word faults"));
        assert!(out.contains("2 write retries"));
    }

    #[test]
    fn normalization_against_baseline() {
        let base = report(1000, 100);
        let ours = report(300, 22);
        assert!((ours.normalized_cycles(&base) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn zero_baselines_do_not_divide_by_zero() {
        let base = report(0, 0);
        let ours = report(10, 10);
        assert_eq!(ours.normalized_cycles(&base), 0.0);
    }
}

//! `htap1` / `htap2`: hybrid transactional/analytical processing workloads,
//! modelled after the in-memory-table workloads of the GS-DRAM paper that
//! MDACache evaluates (Sec. VI-B, reference 40).
//!
//! A `2048 × n` table of 64-bit fields is shared by two request classes:
//!
//! * **analytical scans** aggregate one field over every record — a column
//!   walk of the table (vectorizable only on MDA hierarchies);
//! * **transactions** read and update every field of one *random* record —
//!   a row access.
//!
//! `htap1` is the analytics-dominant mix, `htap2` the transaction-dominant
//! one. Because transactions pick random records, these workloads are
//! generated directly (deterministically, from a fixed seed) rather than
//! compiled from affine loop nests; scans and transactions are interleaved
//! the way a concurrent HTAP system would interleave them.

use mda_compiler::ir::Program;
use mda_compiler::layout::{ArrayLayout, Layout};
use mda_compiler::trace::{MemOp, TraceCursor, TraceOp, TraceSource};
use mda_compiler::vectorize::CodegenOptions;
use mda_mem::{LineKey, Orientation, LINE_WORDS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of records in the HTAP table (paper: 2048 × 256 / 2048 × 512).
pub const HTAP_RECORDS: u64 = 2048;

/// An HTAP workload instance.
#[derive(Debug, Clone)]
pub struct HtapWorkload {
    name: String,
    fields: u64,
    scans: u64,
    transactions: u64,
    seed: u64,
}

/// The analytics-dominant mix: scan many fields, with sparse transactional
/// updates interleaved (scan volume ≈ 2× transaction volume).
pub fn htap1(fields: u64) -> HtapWorkload {
    HtapWorkload::new("htap1", fields, fields.min(128), 256, 0x0001_1AF1)
}

/// The transaction-dominant mix: mostly record updates, with periodic
/// analytical scans.
pub fn htap2(fields: u64) -> HtapWorkload {
    HtapWorkload::new("htap2", fields, 32, 2048, 0x0001_1AF2)
}

impl HtapWorkload {
    /// Builds a custom mix over a `2048 × fields` table.
    ///
    /// # Panics
    /// Panics if `fields` is zero or fewer scans than one are requested
    /// with zero transactions (an empty workload).
    pub fn new(
        name: impl Into<String>,
        fields: u64,
        scans: u64,
        transactions: u64,
        seed: u64,
    ) -> HtapWorkload {
        assert!(fields > 0, "table must have at least one field");
        assert!(scans + transactions > 0, "workload must issue some requests");
        HtapWorkload { name: name.into(), fields, scans, transactions, seed }
    }

    /// The table declared as a program (used for layout planning only).
    fn table_program(&self) -> (Program, mda_compiler::ArrayId) {
        let mut p = Program::new(self.name.clone());
        let t = p.array("table", HTAP_RECORDS, self.fields);
        (p, t)
    }

    /// Emits one analytical scan of field `f`.
    fn emit_scan(
        &self,
        layout: &ArrayLayout,
        opts: &CodegenOptions,
        f: u64,
        out: &mut Vec<TraceOp>,
    ) {
        let mut r = 0u64;
        while r < HTAP_RECORDS {
            let word = layout.addr(r, f);
            let vector = opts.vectorize_cols && {
                let line = LineKey::containing(word, Orientation::Col);
                line.offset_of(word) == Some(0) && r + LINE_WORDS as u64 <= HTAP_RECORDS
            };
            let orient = Orientation::Col;
            out.push(TraceOp::Mem(MemOp { word, orient, vector, write: false, stream: 0 }));
            out.push(TraceOp::Compute(2));
            r += if vector { LINE_WORDS as u64 } else { 1 };
        }
    }

    /// Emits one transaction on record `rec`: read all fields, write them
    /// back.
    fn emit_txn(
        &self,
        layout: &ArrayLayout,
        opts: &CodegenOptions,
        rec: u64,
        out: &mut Vec<TraceOp>,
    ) {
        for write in [false, true] {
            let stream = if write { 2u32 } else { 1u32 };
            let mut f = 0u64;
            while f < self.fields {
                let word = layout.addr(rec, f);
                let vector = opts.vectorize_rows && {
                    let line = LineKey::containing(word, Orientation::Row);
                    line.offset_of(word) == Some(0) && f + LINE_WORDS as u64 <= self.fields
                };
                let orient = Orientation::Row;
                out.push(TraceOp::Mem(MemOp { word, orient, vector, write, stream }));
                out.push(TraceOp::Compute(1));
                f += if vector { LINE_WORDS as u64 } else { 1 };
            }
        }
    }
}

impl TraceSource for HtapWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn cursor(&self, opts: &CodegenOptions) -> Box<dyn TraceCursor + '_> {
        let (program, table) = self.table_program();
        let layout = *Layout::plan(&program, opts.layout).of(table);
        Box::new(HtapCursor {
            workload: self,
            layout,
            opts: *opts,
            rng: StdRng::seed_from_u64(self.seed),
            step: 0,
            scans_done: 0,
            txns_done: 0,
        })
    }
}

/// The cursor over an HTAP trace: one batch per scan or transaction.
struct HtapCursor<'a> {
    workload: &'a HtapWorkload,
    layout: ArrayLayout,
    opts: CodegenOptions,
    rng: StdRng,
    /// Requests issued so far (scans and transactions).
    step: u64,
    scans_done: u64,
    txns_done: u64,
}

impl TraceCursor for HtapCursor<'_> {
    fn next_batch(&mut self, out: &mut Vec<TraceOp>) -> bool {
        out.clear();
        let w = self.workload;
        // Interleave the two request classes proportionally so that the
        // cache sees concurrent row and column affinity, as in a live HTAP
        // system.
        let total = w.scans + w.transactions;
        while out.is_empty() && self.step < total {
            let scan_due =
                self.scans_done * total <= self.step * w.scans && self.scans_done < w.scans;
            if scan_due {
                let f = if w.scans <= w.fields {
                    // Scan distinct leading fields.
                    self.scans_done % w.fields
                } else {
                    self.rng.gen_range(0..w.fields)
                };
                w.emit_scan(&self.layout, &self.opts, f, out);
                self.scans_done += 1;
            } else if self.txns_done < w.transactions {
                let rec = self.rng.gen_range(0..HTAP_RECORDS);
                w.emit_txn(&self.layout, &self.opts, rec, out);
                self.txns_done += 1;
            }
            self.step += 1;
        }
        !out.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mda_compiler::trace::{access_mix, count_ops};

    #[test]
    fn htap1_is_scan_dominant_and_htap2_txn_dominant() {
        let mix1 = access_mix(&htap1(256), &CodegenOptions::mda());
        let mix2 = access_mix(&htap2(256), &CodegenOptions::mda());
        assert!(mix1.col_fraction() > 0.5, "htap1 col fraction {}", mix1.col_fraction());
        assert!(mix2.col_fraction() < 0.5, "htap2 col fraction {}", mix2.col_fraction());
        assert!(mix1.col_fraction() > mix2.col_fraction());
    }

    #[test]
    fn generation_is_deterministic() {
        let w = htap1(64);
        let a = count_ops(&w, &CodegenOptions::mda());
        let b = count_ops(&w, &CodegenOptions::mda());
        assert_eq!(a, b);
    }

    #[test]
    fn scans_vectorize_only_with_column_support() {
        let w = HtapWorkload::new("scan-only", 64, 4, 0, 1);
        let base = count_ops(&w, &CodegenOptions::baseline());
        let mda = count_ops(&w, &CodegenOptions::mda());
        assert_eq!(base.vector_mem_ops, 0);
        assert_eq!(mda.vector_mem_ops, 4 * HTAP_RECORDS / 8);
        assert_eq!(base.mem_ops, 4 * HTAP_RECORDS);
    }

    #[test]
    fn transactions_vectorize_along_rows_everywhere() {
        let w = HtapWorkload::new("txn-only", 64, 0, 10, 1);
        let base = count_ops(&w, &CodegenOptions::baseline());
        // 10 txns × 2 passes × 64 fields / 8-wide vectors.
        assert_eq!(base.vector_mem_ops, 10 * 2 * 64 / 8);
    }

    #[test]
    fn footprint_covers_the_table() {
        let (program, _) = htap1(256).table_program();
        let bytes = Layout::plan(&program, CodegenOptions::mda().layout).total_bytes();
        assert!(bytes >= HTAP_RECORDS * 256 * 8);
    }

    #[test]
    #[should_panic(expected = "at least one field")]
    fn zero_fields_rejected() {
        let _ = HtapWorkload::new("x", 0, 1, 1, 0);
    }
}

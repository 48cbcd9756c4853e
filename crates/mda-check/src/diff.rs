//! Differential mode: replay enumerated access sequences through the real
//! cache levels and cross-check every observable against the abstract
//! models.
//!
//! For each sequence the driver runs a fresh real level (`Cache1P2L` under
//! both index mappings, `Cache2P2L` under both fill policies) next to a
//! fresh abstract model, decomposing each op into the same
//! probe → policy-writeback → fill protocol the `mda-sim` hierarchy uses.
//! After every op it compares: hit/miss classification, the multiset of
//! emitted writebacks (line + dirty mask), and the full per-line
//! presence/dirty state of the model tile; each sequence ends with a flush
//! whose writebacks are compared the same way. The configurations are sized
//! so the sub-grid never suffers a capacity eviction — replacement is
//! covered separately by the BFS explorer's nondeterministic evictions.

use crate::model::{Model1P2L, Mutation, MODEL_TILE};
use crate::model2p2l::Model2P2L;
use crate::ops::{apply_1p2l, apply_2p2l, ModelStep, Op};
use crate::sequences::{diff_alphabet, for_each_sequence};
use mda_cache::{
    Access, Cache1P2L, Cache2P2L, CacheConfig, CacheLevel, CacheStats, InlineVec, Probe,
    SetMapping, Writeback,
};
use mda_mem::{LineKey, Orientation, TILE_LINES};

/// Differential workload bounds.
#[derive(Debug, Clone, Copy)]
pub struct DiffConfig {
    /// Sub-grid edge (words per enumerated row/column), `1..=8`.
    pub sub: u8,
    /// Exhaustive enumeration depth (all sequences of length `1..=depth`).
    pub depth: usize,
    /// Extra fixed-seed random sequences per cache configuration.
    pub random: usize,
    /// Length of each random sequence.
    pub random_len: usize,
    /// Seed for the random stream.
    pub seed: u64,
}

impl Default for DiffConfig {
    fn default() -> DiffConfig {
        DiffConfig { sub: 2, depth: 3, random: 256, random_len: 12, seed: 0x6d64_6163 }
    }
}

/// A divergence between a real level and its abstract model.
#[derive(Debug, Clone)]
pub struct DiffMismatch {
    /// Which cache configuration diverged.
    pub config: String,
    /// The sequence replayed (the implicit final flush appears as `FLUSH`).
    pub trace: Vec<Op>,
    /// Zero-based index of the diverging op within `trace`.
    pub step: usize,
    /// Human-readable description of the divergence.
    pub detail: String,
}

impl std::fmt::Display for DiffMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "differential mismatch on {} at op {}:", self.config, self.step + 1)?;
        writeln!(f, "  {}", self.detail)?;
        writeln!(f, "  sequence:")?;
        for (i, op) in self.trace.iter().enumerate() {
            let marker = if i == self.step { "=>" } else { "  " };
            writeln!(f, "  {marker} {:>2}. {op}", i + 1)?;
        }
        Ok(())
    }
}

/// Result of a differential run.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Sequences replayed (summed over cache configurations).
    pub sequences: usize,
    /// Individual ops checked.
    pub steps: usize,
    /// First divergence found, if any.
    pub mismatch: Option<DiffMismatch>,
}

/// Either abstract model, unified for the replay loop.
enum ModelSide {
    M1(Model1P2L),
    M2(Model2P2L),
}

impl ModelSide {
    fn step(&mut self, op: &Op) -> ModelStep {
        match self {
            ModelSide::M1(m) => apply_1p2l(m, op),
            ModelSide::M2(m) => apply_2p2l(m, op),
        }
    }

    fn present(&self, line: &LineKey) -> bool {
        match self {
            ModelSide::M1(m) => m.present(line),
            ModelSide::M2(m) => m.present(line),
        }
    }

    /// The dirty mask the *real* level is expected to report for `line`
    /// (2P2L tracks dirtiness per line, so a dirty line reads back `0xFF`).
    fn expected_dirty(&self, line: &LineKey) -> u8 {
        match self {
            ModelSide::M1(m) => m.dirty_mask(line),
            ModelSide::M2(m) => {
                if m.line_dirty(line) {
                    0xFF
                } else {
                    0
                }
            }
        }
    }

    fn check(&self) -> Result<(), crate::model::Violation> {
        match self {
            ModelSide::M1(m) => m.check_invariants(),
            ModelSide::M2(m) => m.check_invariants(),
        }
    }
}

/// Which words of `line` a write op modifies (the hierarchy's
/// write-allocate mask).
fn written_mask(op: &Op, line: &LineKey) -> u8 {
    match op {
        Op::VectorWrite { .. } => 0xFF,
        Op::ScalarWrite { word, .. } => line.offset_of(*word).map(|off| 1u8 << off).unwrap_or(0),
        _ => 0,
    }
}

/// Applies `op` to the real level exactly as the `mda-sim` hierarchy
/// would: probe, forward the policy writebacks, then on a miss fill the
/// dense companions clean and the demand line with the write-allocate
/// mask. Returns the hit classification and every writeback emitted.
fn drive_real(real: &mut dyn CacheLevel, op: &Op) -> (bool, Vec<Writeback>) {
    let mut wbs: Vec<Writeback> = Vec::new();
    let access = match *op {
        Op::ScalarRead { word, orient } => Access::scalar_read(word, orient, 0),
        Op::ScalarWrite { word, orient } => Access::scalar_write(word, orient, 0),
        Op::VectorRead { line } => Access::vector_read(line, 0),
        Op::VectorWrite { line } => Access::vector_write(line, 0),
        Op::Flush => {
            real.flush(&mut wbs);
            return (true, wbs);
        }
        Op::Absorb { line, dirty } => {
            let wb = Writeback { line, dirty };
            if !real.absorb_writeback(&wb, &mut wbs) {
                real.fill(line, dirty, &mut wbs);
            }
            return (true, wbs);
        }
        Op::EvictLine { .. } | Op::EvictBlock => return (true, wbs),
    };
    let mut probe = Probe::hit();
    real.probe_into(&access, &mut probe);
    wbs.extend(probe.writebacks.iter().copied());
    if !probe.hit {
        let demand = probe.fills[0];
        // Companions first, then the demand line — the hierarchy's order.
        for i in 1..probe.fills.len() {
            real.fill(probe.fills[i], 0, &mut wbs);
        }
        let dirty = if access.is_write { written_mask(op, &demand) } else { 0 };
        real.fill(demand, dirty, &mut wbs);
    }
    (probe.hit, wbs)
}

/// Canonical sortable key for writeback multiset comparison.
fn wb_key(wb: &Writeback) -> (u64, u8, u8, u8) {
    (wb.line.tile, wb.line.orient as u8, wb.line.idx, wb.dirty)
}

fn sorted_wbs(wbs: &[Writeback]) -> Vec<(u64, u8, u8, u8)> {
    let mut keys: Vec<_> = wbs.iter().map(wb_key).collect();
    keys.sort_unstable();
    keys
}

fn fmt_wbs(wbs: &[Writeback]) -> String {
    let items: Vec<String> =
        wbs.iter().map(|wb| format!("{} mask {:#04x}", wb.line, wb.dirty)).collect();
    format!("[{}]", items.join(", "))
}

/// Replays one sequence (plus a final flush) on a fresh real/model pair,
/// returning the first divergence.
fn replay(
    config: &str,
    real: &mut dyn CacheLevel,
    model: &mut ModelSide,
    seq: &[Op],
    steps: &mut usize,
) -> Result<(), DiffMismatch> {
    let mut trace: Vec<Op> = seq.to_vec();
    trace.push(Op::Flush);
    let mismatch = |step: usize, detail: String| DiffMismatch {
        config: config.to_string(),
        trace: trace.clone(),
        step,
        detail,
    };
    for (i, op) in trace.iter().enumerate() {
        *steps += 1;
        let model_step = model.step(op);
        let (real_hit, real_wbs) = drive_real(real, op);
        let access_op = !matches!(op, Op::Flush);
        if access_op && model_step.hit != real_hit {
            return Err(mismatch(
                i,
                format!("hit/miss disagreement: model {} real {}", model_step.hit, real_hit),
            ));
        }
        if model_step.stale_read {
            return Err(mismatch(i, "model served a read from a stale copy".to_string()));
        }
        if sorted_wbs(&model_step.writebacks) != sorted_wbs(&real_wbs) {
            return Err(mismatch(
                i,
                format!(
                    "writeback sets differ: model {} real {}",
                    fmt_wbs(&model_step.writebacks),
                    fmt_wbs(&real_wbs)
                ),
            ));
        }
        if let Err(violation) = model.check() {
            return Err(mismatch(i, format!("model invariant violated: {violation}")));
        }
        // Full state comparison over every line of the model tile.
        let mut real_lines: Vec<(LineKey, u8)> = Vec::new();
        real.for_each_line(&mut |line, dirty| real_lines.push((line, dirty)));
        for orient in Orientation::BOTH {
            for idx in 0..TILE_LINES as u8 {
                let line = LineKey::new(MODEL_TILE, orient, idx);
                let real_entry = real_lines.iter().find(|(l, _)| *l == line);
                let real_present = real.contains_line(&line);
                if real_present != real_entry.is_some() {
                    return Err(mismatch(
                        i,
                        format!("real level inconsistent about presence of {line}"),
                    ));
                }
                if model.present(&line) != real_present {
                    return Err(mismatch(
                        i,
                        format!(
                            "presence of {line} differs: model {} real {}",
                            model.present(&line),
                            real_present
                        ),
                    ));
                }
                let real_dirty = real_entry.map(|(_, d)| *d).unwrap_or(0);
                if model.expected_dirty(&line) != real_dirty {
                    return Err(mismatch(
                        i,
                        format!(
                            "dirty mask of {line} differs: model {:#04x} real {real_dirty:#04x}",
                            model.expected_dirty(&line)
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// One real-level configuration under differential test.
struct DiffTarget {
    name: &'static str,
    make_real: fn() -> Box<dyn CacheLevel>,
    make_model: fn() -> ModelSide,
}

/// An L1-sized config: with the Different-Set mapping, row `i` and column
/// `i` of tile 0 share a set (≤ 2 lines per 4-way set); with Same-Set, the
/// whole 2×2 sub-grid is 4 lines in one 4-way set. Either way the
/// differential sub-grid never suffers a capacity eviction.
fn l1_cfg() -> CacheConfig {
    CacheConfig::l1_32k()
}

fn targets() -> Vec<DiffTarget> {
    vec![
        DiffTarget {
            name: "1P2L/different-set",
            make_real: || Box::new(Cache1P2L::new(l1_cfg(), SetMapping::DifferentSet)),
            make_model: || ModelSide::M1(Model1P2L::new(8, Mutation::None)),
        },
        DiffTarget {
            name: "1P2L/same-set",
            make_real: || Box::new(Cache1P2L::new(l1_cfg(), SetMapping::SameSet)),
            make_model: || ModelSide::M1(Model1P2L::new(8, Mutation::None)),
        },
        DiffTarget {
            name: "2P2L/sparse",
            make_real: || Box::new(Cache2P2L::new(l1_cfg())),
            make_model: || ModelSide::M2(Model2P2L::new(8, true, Mutation::None)),
        },
        DiffTarget {
            name: "2P2L/dense",
            make_real: || Box::new(Cache2P2L::with_fill_policy(l1_cfg(), false)),
            make_model: || ModelSide::M2(Model2P2L::new(8, false, Mutation::None)),
        },
    ]
}

fn run_target(
    name: &str,
    make_real: &dyn Fn() -> Box<dyn CacheLevel>,
    make_model: &dyn Fn() -> ModelSide,
    cfg: &DiffConfig,
    sequences: &mut usize,
    steps: &mut usize,
) -> Option<DiffMismatch> {
    let alphabet = diff_alphabet(cfg.sub);
    let mut found = None;
    for_each_sequence(&alphabet, cfg.depth, cfg.random, cfg.random_len, cfg.seed, |seq| {
        *sequences += 1;
        let mut real = make_real();
        let mut model = make_model();
        match replay(name, real.as_mut(), &mut model, seq, steps) {
            Ok(()) => true,
            Err(m) => {
                found = Some(m);
                false
            }
        }
    });
    found
}

/// Runs the full differential suite: both 1P2L mappings and both 2P2L fill
/// policies against their abstract models.
pub fn run_differential(cfg: &DiffConfig) -> DiffReport {
    let mut sequences = 0usize;
    let mut steps = 0usize;
    let mut mismatch = None;
    for target in targets() {
        if mismatch.is_some() {
            break;
        }
        mismatch = run_target(
            target.name,
            &target.make_real,
            &target.make_model,
            cfg,
            &mut sequences,
            &mut steps,
        );
    }
    DiffReport { sequences, steps, mismatch }
}

/// A [`CacheLevel`] test double that silently drops one word offset from
/// every writeback it emits — the seeded coherence bug the mutation tests
/// require the differential mode to catch.
pub struct WritebackDropper<L: CacheLevel> {
    inner: L,
    offset: u8,
}

impl<L: CacheLevel> WritebackDropper<L> {
    /// Wraps `inner`, dropping line offset `offset` from all writebacks.
    pub fn new(inner: L, offset: u8) -> WritebackDropper<L> {
        WritebackDropper { inner, offset }
    }

    fn mangle(&self, wbs: &mut Vec<Writeback>, from: usize) {
        let keep = !(1u8 << self.offset);
        let mut i = from;
        while i < wbs.len() {
            wbs[i].dirty &= keep;
            if wbs[i].dirty == 0 {
                wbs.remove(i);
            } else {
                i += 1;
            }
        }
    }
}

impl<L: CacheLevel> CacheLevel for WritebackDropper<L> {
    fn probe_into(&mut self, acc: &Access, out: &mut Probe) {
        self.inner.probe_into(acc, out);
        let keep = !(1u8 << self.offset);
        let mut filtered: InlineVec<Writeback, { mda_cache::level::PROBE_MAX }> = InlineVec::new();
        for wb in out.writebacks.iter() {
            let dirty = wb.dirty & keep;
            if dirty != 0 {
                filtered.push(Writeback { line: wb.line, dirty });
            }
        }
        out.writebacks = filtered;
    }

    fn fill(&mut self, line: LineKey, dirty: u8, out: &mut Vec<Writeback>) {
        let from = out.len();
        self.inner.fill(line, dirty, out);
        self.mangle(out, from);
    }

    fn absorb_writeback(&mut self, wb: &Writeback, cascades: &mut Vec<Writeback>) -> bool {
        let from = cascades.len();
        let absorbed = self.inner.absorb_writeback(wb, cascades);
        self.mangle(cascades, from);
        absorbed
    }

    fn contains_line(&self, line: &LineKey) -> bool {
        self.inner.contains_line(line)
    }

    fn occupancy(&self) -> (usize, usize, usize) {
        self.inner.occupancy()
    }

    fn stats(&self) -> &CacheStats {
        self.inner.stats()
    }

    fn stats_mut(&mut self) -> &mut CacheStats {
        self.inner.stats_mut()
    }

    fn config(&self) -> &CacheConfig {
        self.inner.config()
    }

    fn flush(&mut self, out: &mut Vec<Writeback>) {
        let from = out.len();
        self.inner.flush(out);
        self.mangle(out, from);
    }

    fn for_each_line(&self, f: &mut dyn FnMut(LineKey, u8)) {
        self.inner.for_each_line(f);
    }
}

/// Runs the differential with a seeded writeback-dropping bug wrapped
/// around the real 1P2L level; used by the mutation tests to prove the
/// differential actually detects broken writebacks.
pub fn run_differential_with_dropped_word(offset: u8, cfg: &DiffConfig) -> DiffReport {
    let mut sequences = 0usize;
    let mut steps = 0usize;
    let alphabet = diff_alphabet(cfg.sub);
    let mut mismatch = None;
    for_each_sequence(&alphabet, cfg.depth, cfg.random, cfg.random_len, cfg.seed, |seq| {
        sequences += 1;
        let mut real =
            WritebackDropper::new(Cache1P2L::new(l1_cfg(), SetMapping::DifferentSet), offset);
        let mut model = ModelSide::M1(Model1P2L::new(8, Mutation::None));
        match replay("1P2L/dropped-word", &mut real, &mut model, seq, &mut steps) {
            Ok(()) => true,
            Err(m) => {
                mismatch = Some(m);
                false
            }
        }
    });
    DiffReport { sequences, steps, mismatch }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> DiffConfig {
        DiffConfig { sub: 2, depth: 2, random: 32, random_len: 10, seed: 0xBEEF }
    }

    #[test]
    fn real_levels_agree_with_models_on_short_sequences() {
        let report = run_differential(&quick());
        assert!(report.mismatch.is_none(), "{}", report.mismatch.unwrap());
        assert!(report.sequences > 0 && report.steps > 0);
    }

    #[test]
    fn dropped_writeback_word_is_caught() {
        let report = run_differential_with_dropped_word(0, &quick());
        let m = report.mismatch.expect("seeded writeback bug must be detected");
        assert!(m.detail.contains("writeback"), "unexpected detail: {}", m.detail);
    }
}

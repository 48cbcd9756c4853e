//! Extension: reliability under fault injection — the cost of ECC,
//! write-verify-retry and tile remapping across the error-rate range.
//!
//! The paper's crosspoint STT-MRAM arrays are write-error-prone, but the
//! evaluation assumes fault-free devices. This experiment sweeps the raw
//! write bit-error rate over several orders of magnitude with proportional
//! read-disturb and retention rates, and reports for each design:
//!
//! * total cycles normalized to that design's own fault-free run (the
//!   performance tax of verify-retry traffic and remap lookups),
//! * write retries per thousand line writes, and
//! * ECC-corrected words per million words accessed.
//!
//! The fault model is seeded deterministically, so tables are reproducible
//! across runs and worker counts.

use crate::experiments::{metric_series, norm, FigureTable};
use crate::parallel::{run_cells, Cell};
use crate::scale::Scale;
use mda_sim::{FaultConfig, HierarchyKind};
use mda_workloads::Kernel;

/// Raw write bit-error rates swept, from fault-free to aggressive.
pub const BERS: [f64; 4] = [0.0, 1e-5, 1e-4, 1e-3];

/// Seed for the deterministic fault model (arbitrary but fixed).
pub const FAULT_SEED: u64 = 0x4D44_4143;

/// Designs compared: the conventional baseline and the two headline MDA
/// designs.
pub const PLOTTED: [HierarchyKind; 3] =
    [HierarchyKind::Baseline1P1L, HierarchyKind::P1L2DifferentSet, HierarchyKind::P2L2Sparse];

/// The fault configuration for one sweep point: read-disturb and retention
/// rates scale with the write BER (writes dominate raw error rates in
/// crosspoint STT devices).
pub fn fault_config(write_ber: f64) -> FaultConfig {
    FaultConfig::uniform(FAULT_SEED, write_ber, write_ber / 8.0, write_ber / 16.0)
}

/// Row label for one error-rate point (also the `sweep ber` row label).
pub fn ber_label(ber: f64) -> String {
    if ber == 0.0 {
        "ber=0".to_string()
    } else {
        format!("ber={ber:e}")
    }
}

/// All three panels of the reliability study.
#[derive(Debug, Clone, PartialEq)]
pub struct ReliabilityFigure {
    /// Cycles normalized to each design's own fault-free run.
    pub cycles: FigureTable,
    /// Write retries per 1 000 line writes.
    pub retries: FigureTable,
    /// ECC-corrected words per 1 000 000 words accessed.
    pub corrected: FigureTable,
}

/// Runs the sweep on `sgemm` (the most write-heavy kernel of the suite).
pub fn run(scale: Scale) -> ReliabilityFigure {
    let n = scale.input();
    let rows: Vec<String> = BERS.iter().map(|b| ber_label(*b)).collect();
    let mut cycles = FigureTable::new(
        format!("Extension — cycles vs write BER, normalized to each design's fault-free run ({n}×{n}, sgemm)"),
        rows.clone(),
    );
    let mut retries = FigureTable::new(
        format!("Extension — write retries per 1k line writes ({n}×{n}, sgemm)"),
        rows.clone(),
    );
    let mut corrected = FigureTable::new(
        format!("Extension — ECC-corrected words per 1M words accessed ({n}×{n}, sgemm)"),
        rows,
    );

    let cells: Vec<Cell> = PLOTTED
        .iter()
        .flat_map(|kind| {
            BERS.iter().map(|ber| {
                Cell::new(
                    format!("ext_reliability/{}/{}", kind.name(), ber_label(*ber)),
                    Kernel::Sgemm,
                    n,
                    scale.system(*kind).with_faults(fault_config(*ber)),
                )
            })
        })
        .collect();
    let outcomes = run_cells(&cells);

    for (kind, chunk) in PLOTTED.iter().zip(outcomes.chunks(BERS.len())) {
        // chunk[0] is the design's own ber=0 run: the cycle normalizer.
        let raw_cycles = metric_series(chunk, |r| r.cycles as f64);
        cycles
            .push_series(kind.name(), raw_cycles.iter().map(|c| norm(*c, raw_cycles[0])).collect());
        retries.push_series(
            kind.name(),
            metric_series(chunk, |r| r.mem.write_retries as f64 * 1e3 / r.mem.writes.max(1) as f64),
        );
        corrected.push_series(
            kind.name(),
            metric_series(chunk, |r| {
                r.mem.ecc_corrected_words as f64 * 1e6 / r.mem.words_accessed().max(1) as f64
            }),
        );
    }
    ReliabilityFigure { cycles, retries, corrected }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_row_is_exactly_one_with_zero_retries() {
        let f = run(Scale::Tiny);
        for kind in PLOTTED {
            let d = kind.name();
            assert_eq!(f.cycles.value(d, "ber=0"), Some(1.0), "{d} normalizer");
            assert_eq!(f.retries.value(d, "ber=0"), Some(0.0), "{d} retries");
            assert_eq!(f.corrected.value(d, "ber=0"), Some(0.0), "{d} corrections");
        }
    }

    #[test]
    fn aggressive_error_rates_cost_retries_and_cycles() {
        let f = run(Scale::Tiny);
        let worst = ber_label(BERS[BERS.len() - 1]);
        for kind in PLOTTED {
            let d = kind.name();
            let retries = f.retries.value(d, &worst).expect("series");
            assert!(retries > 0.0, "{d}: no retries at the highest BER");
            let cycles = f.cycles.value(d, &worst).expect("series");
            assert!(cycles >= 1.0, "{d}: faults cannot speed execution up ({cycles})");
            let corrected = f.corrected.value(d, &worst).expect("series");
            assert!(corrected > 0.0, "{d}: ECC never fired at the highest BER");
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        assert_eq!(run(Scale::Tiny), run(Scale::Tiny));
    }
}

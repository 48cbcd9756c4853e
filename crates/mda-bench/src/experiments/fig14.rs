//! Fig. 14: LLC accesses and LLC↔memory transfer, normalized to the
//! prefetching 1P1L baseline (1 MB-equivalent LLC, large input).
//!
//! The paper reports the MDA designs cutting L3 accesses to ~20–22% of the
//! baseline and memory bytes to ~15–21%: MSHR coalescing merges many misses
//! to the same column into one column access, and column transfers stop
//! fetching 64 bytes per useful word.

use crate::experiments::{against_baseline, normalized, FigureTable};
use crate::fig11::PLOTTED;
use crate::scale::Scale;

/// Both panels of the figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig14 {
    /// Normalized LLC demand accesses.
    pub llc_accesses: FigureTable,
    /// Normalized LLC↔memory bytes.
    pub memory_bytes: FigureTable,
}

/// Runs both panels.
pub fn run(scale: Scale) -> Fig14 {
    let n = scale.input();
    let [llc_accesses, memory_bytes] = normalized(
        "fig14",
        n,
        &against_baseline(&PLOTTED, |kind| scale.system(kind)),
        [
            (format!("Fig. 14a — normalized LLC accesses ({n}×{n})"), |r| {
                r.llc_accesses() as f64
            }),
            (format!("Fig. 14b — normalized LLC–memory transfer ({n}×{n})"), |r| {
                r.llc_memory_bytes() as f64
            }),
        ],
    );
    Fig14 { llc_accesses, memory_bytes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_collapses_under_mda_caching() {
        let f = run(Scale::Tiny);
        for design in ["1P2L", "1P2L_SameSet", "2P2L"] {
            let acc = f.llc_accesses.average(design).expect("series");
            let bytes = f.memory_bytes.average(design).expect("series");
            assert!(acc < 0.6, "{design} LLC accesses {acc} not reduced enough");
            assert!(bytes < 0.8, "{design} memory bytes {bytes} not reduced enough");
        }
    }
}

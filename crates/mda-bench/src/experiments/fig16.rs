//! Fig. 16: impact of highly asymmetric write latency on the 2P2L LLC.
//!
//! On-chip NVM technologies exhibit a wide range of write/read latency
//! ratios; the paper re-runs the 2P2L design with writes taking 20 extra
//! cycles and finds only a small (≈0.4% average) degradation, because LLC
//! writes (fills and writebacks) are largely off the critical path.

use crate::experiments::{against_baseline, normalized, FigureTable};
use crate::scale::Scale;
use mda_sim::HierarchyKind;

/// Extra write cycles applied in the slow-write variant (paper: 20).
pub const SLOW_WRITE_CYCLES: u64 = 20;

/// Runs the asymmetry study: normalized cycles of 1P2L, 2P2L and
/// 2P2L-Slow_Write against the baseline.
pub fn run(scale: Scale) -> FigureTable {
    let n = scale.input();
    let mut series =
        against_baseline(&[HierarchyKind::P1L2DifferentSet, HierarchyKind::P2L2Sparse], |kind| {
            scale.system(kind)
        });
    series.push((
        "2P2L-Slow_Write".to_string(),
        scale.system(HierarchyKind::P2L2Sparse).with_llc_write_penalty(SLOW_WRITE_CYCLES),
    ));
    let [fig] = normalized(
        "fig16",
        n,
        &series,
        [(
            format!("Fig. 16 — 2P2L write asymmetry (+{SLOW_WRITE_CYCLES} cycles), normalized cycles ({n}×{n})"),
            |r| r.cycles as f64,
        )],
    );
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_writes_cost_little() {
        let fig = run(Scale::Tiny);
        let fast = fig.average("2P2L").expect("series");
        let slow = fig.average("2P2L-Slow_Write").expect("series");
        assert!(slow >= fast, "extra write latency cannot speed things up");
        assert!(
            slow - fast < 0.10,
            "write asymmetry should cost a few percent at most ({fast} → {slow})"
        );
    }
}

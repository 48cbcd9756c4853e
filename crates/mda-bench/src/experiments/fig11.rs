//! Fig. 11: L1 hit rates normalized to the prefetching 1P1L baseline,
//! 1 MB-equivalent LLC, large input — plus a companion panel of normalized
//! L1 *fill counts*.
//!
//! The hit-*rate* normalization is definition-sensitive: the MDA designs
//! replace eight scalar accesses by one vector access, so their
//! denominator shrinks 8× while the prefetching baseline's denominator
//! stays inflated by scalar re-accesses to prefetched lines (see
//! EXPERIMENTS.md for the divergence discussion). The fill-count panel is
//! the denominator-free view: how many lines actually had to be brought
//! into the L1, counting the baseline's prefetcher work.

use crate::experiments::{against_baseline, normalized, FigureTable};
use crate::{Harness, Scale};
use mda_sim::HierarchyKind;

/// The MDA designs plotted by Figs. 11–14 (the baseline is the normalizer).
pub const PLOTTED: [HierarchyKind; 3] =
    [HierarchyKind::P1L2DifferentSet, HierarchyKind::P1L2SameSet, HierarchyKind::P2L2Sparse];

/// Both panels of the figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11 {
    /// Normalized L1 hit rates (the paper's metric).
    pub hit_rate: FigureTable,
    /// Normalized L1 fill counts, demand + prefetch (companion metric).
    pub fills: FigureTable,
}

/// Runs the experiment.
pub fn run(harness: &Harness, scale: Scale) -> Fig11 {
    let n = scale.input();
    let [hit_rate, fills] = normalized(
        harness,
        "fig11",
        n,
        &against_baseline(&PLOTTED, |kind| scale.system(kind)),
        [
            (format!("Fig. 11 — L1 hit rate normalized to 1P1L+prefetch ({n}×{n})"), |r| {
                r.l1_hit_rate()
            }),
            (
                format!("Fig. 11 (companion) — L1 fills normalized to 1P1L+prefetch ({n}×{n})"),
                |r| (r.levels[0].demand_fills + r.levels[0].prefetch_fills) as f64,
            ),
        ],
    );
    Fig11 { hit_rate, fills }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rates_are_positive_everywhere() {
        let fig = run(Harness::shared(), Scale::Tiny);
        for (_, vals) in &fig.hit_rate.series {
            assert!(vals.iter().all(|v| *v > 0.0));
        }
    }

    #[test]
    fn mda_designs_cut_l1_fills() {
        let fig = run(Harness::shared(), Scale::Tiny);
        for design in ["1P2L", "1P2L_SameSet", "2P2L"] {
            let avg = fig.fills.average(design).expect("series");
            assert!(avg < 0.7, "{design}: fill count only fell to {avg:.2}");
        }
    }
}

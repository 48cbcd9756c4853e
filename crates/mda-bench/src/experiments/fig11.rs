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

use crate::experiments::{metric_series, norm_series, run_grid, FigureTable};
use crate::scale::Scale;
use mda_sim::HierarchyKind;
use mda_workloads::Kernel;

/// The MDA designs plotted by Figs. 11–14 (the baseline is the normalizer).
pub const PLOTTED: [HierarchyKind; 3] = [
    HierarchyKind::P1L2DifferentSet,
    HierarchyKind::P1L2SameSet,
    HierarchyKind::P2L2Sparse,
];

/// Both panels of the figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11 {
    /// Normalized L1 hit rates (the paper's metric).
    pub hit_rate: FigureTable,
    /// Normalized L1 fill counts, demand + prefetch (companion metric).
    pub fills: FigureTable,
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Fig11 {
    let n = scale.input();
    let kernels: Vec<String> = Kernel::all().iter().map(|k| k.name().to_string()).collect();
    let mut hit_rate = FigureTable::new(
        format!("Fig. 11 — L1 hit rate normalized to 1P1L+prefetch ({n}×{n})"),
        kernels.clone(),
    );
    let mut fills = FigureTable::new(
        format!("Fig. 11 (companion) — L1 fills normalized to 1P1L+prefetch ({n}×{n})"),
        kernels,
    );
    let l1_fills = |r: &mda_sim::SimReport| r.levels[0].demand_fills + r.levels[0].prefetch_fills;
    // Baseline series first, then the plotted designs: every design ×
    // kernel cell fans out across the worker pool.
    let mut configs = vec![("base".to_string(), scale.system(HierarchyKind::Baseline1P1L))];
    configs.extend(PLOTTED.iter().map(|kind| (kind.name().to_string(), scale.system(*kind))));
    let reports = run_grid("fig11", n, &configs);
    let base_hr = metric_series(&reports[0], |r| r.l1_hit_rate());
    let base_fills = metric_series(&reports[0], |r| l1_fills(r) as f64);
    for (kind, chunk) in PLOTTED.iter().zip(&reports[1..]) {
        let hr_vals = norm_series(&metric_series(chunk, |r| r.l1_hit_rate()), &base_hr);
        let fill_vals = norm_series(&metric_series(chunk, |r| l1_fills(r) as f64), &base_fills);
        hit_rate.push_series(kind.name(), hr_vals);
        fills.push_series(kind.name(), fill_vals);
    }
    Fig11 { hit_rate, fills }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rates_are_positive_everywhere() {
        let fig = run(Scale::Tiny);
        for (_, vals) in &fig.hit_rate.series {
            assert!(vals.iter().all(|v| *v > 0.0));
        }
    }

    #[test]
    fn mda_designs_cut_l1_fills() {
        let fig = run(Scale::Tiny);
        for design in ["1P2L", "1P2L_SameSet", "2P2L"] {
            let avg = fig.fills.average(design).expect("series");
            assert!(avg < 0.7, "{design}: fill count only fell to {avg:.2}");
        }
    }
}

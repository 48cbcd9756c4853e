//! Extension (paper Sec. IX-B): MDA caching under multi-programmed
//! workloads.
//!
//! The paper evaluates single-threaded runs and remarks that multiple
//! sub-row buffers "are very useful for multiprogrammed workloads" while
//! "single-application, single-thread scenarios are less sensitive", and
//! that parallel workloads are future work. This experiment runs a
//! four-program mix (sobel + htap1 + htap2 + sobel) over private L1/L2s,
//! a shared LLC and the shared MDA memory, and reports:
//!
//! * the makespan of the mix on the baseline vs. the MDA designs
//!   (normalized to the baseline's makespan), and
//! * each design's makespan with 4 sub-row buffers per bank, normalized to
//!   its own single-buffer makespan — quantifying the paper's claim that
//!   sub-row buffers matter more when several programs interleave at the
//!   banks.

use crate::experiments::FigureTable;
use crate::{Harness, Scale};
use mda_compiler::trace::TraceSource;
use mda_sim::multicore::simulate_multicore;
use mda_sim::HierarchyKind;
use mda_workloads::Kernel;

/// The four-program mix: two column-dominant sobel copies around the two
/// HTAP mixes, so row and column traffic from different programs meets at
/// the shared LLC and the memory banks.
pub const MIX: [Kernel; 4] = [Kernel::Sobel, Kernel::Htap1, Kernel::Htap2, Kernel::Sobel];

/// The designs compared.
pub const PLOTTED: [HierarchyKind; 3] =
    [HierarchyKind::Baseline1P1L, HierarchyKind::P1L2DifferentSet, HierarchyKind::P2L2Sparse];

fn run_mix(scale: Scale, kind: HierarchyKind, sub_buffers: usize) -> u64 {
    let n = scale.input();
    let sources: Vec<Box<dyn TraceSource>> = MIX.iter().map(|k| k.build(n)).collect();
    let refs: Vec<&dyn TraceSource> = sources.iter().map(|s| s.as_ref()).collect();
    let mut cfg = scale.system(kind);
    cfg.mem.sub_buffers = sub_buffers;
    simulate_multicore(&refs, &cfg).makespan
}

/// Runs the multi-programmed comparison.
pub fn run(harness: &Harness, scale: Scale) -> FigureTable {
    let n = scale.input();
    let mut fig = FigureTable::new(
        format!(
            "Extension — 4-program mix (sobel+htap1+htap2+sobel), shared LLC ({n}-sized inputs)"
        ),
        vec!["makespan".to_string()],
    );
    // The five distinct (design, sub-buffer) points: every plotted design
    // with one buffer (the first, 1P1L, is the normalizer), then 1P1L and
    // 1P2L with four.
    let points = [
        (HierarchyKind::Baseline1P1L, 1),
        (HierarchyKind::P1L2DifferentSet, 1),
        (HierarchyKind::P2L2Sparse, 1),
        (HierarchyKind::Baseline1P1L, 4),
        (HierarchyKind::P1L2DifferentSet, 4),
    ];
    let makespans = harness.par_map(&points, |(kind, sub)| run_mix(scale, *kind, *sub));
    let ratio = |num: usize, den: usize| vec![makespans[num] as f64 / makespans[den].max(1) as f64];
    for (i, kind) in PLOTTED.iter().enumerate() {
        fig.push_series(kind.name(), ratio(i, 0));
    }
    // Sub-row-buffer sensitivity, each design normalized to itself.
    for (single, multi) in [(0, 3), (1, 4)] {
        fig.push_series(format!("{}+4buf/self", points[single].0.name()), ratio(multi, single));
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mda_designs_win_under_multiprogramming_too() {
        let fig = run(Harness::shared(), Scale::Tiny);
        let p1l2 = fig.value("1P2L", "makespan").expect("series");
        let p2l2 = fig.value("2P2L", "makespan").expect("series");
        assert!(p1l2 < 0.8, "1P2L multiprogrammed makespan {p1l2}");
        assert!(p2l2 < 0.8, "2P2L multiprogrammed makespan {p2l2}");
    }

    #[test]
    fn sub_row_buffers_help_multiprogrammed_baseline_at_least_as_much_as_solo() {
        // Paper Sec. IX-B: "such schemes are very useful for
        // multiprogrammed workloads[;] single-application … scenarios are
        // less sensitive". Compare the baseline's 4-buffer gain on the mix
        // against its gain on the same kernels run solo.
        let scale = Scale::Tiny;
        let mixed_gain = {
            let single = run_mix(scale, HierarchyKind::Baseline1P1L, 1) as f64;
            let multi = run_mix(scale, HierarchyKind::Baseline1P1L, 4) as f64;
            single / multi
        };
        // Solo gain averaged over the mix's kernels.
        let solo_gain = {
            let mut total = 0.0;
            for k in MIX {
                let src = k.build(scale.input());
                let mut cfg = scale.system(HierarchyKind::Baseline1P1L);
                cfg.mem.sub_buffers = 1;
                let single = mda_sim::simulate(src.as_ref(), &cfg).cycles as f64;
                cfg.mem.sub_buffers = 4;
                let multi = mda_sim::simulate(src.as_ref(), &cfg).cycles as f64;
                total += single / multi;
            }
            total / MIX.len() as f64
        };
        assert!(
            mixed_gain >= solo_gain - 0.05,
            "multiprogrammed gain {mixed_gain:.3} should be at least the solo gain {solo_gain:.3}"
        );
    }
}

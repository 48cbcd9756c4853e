//! Fig. 13: the cache-resident study — two-level hierarchy with a large L2
//! as the LLC and the small input, normalized total cycles.
//!
//! With the working set resident, the memory-bandwidth advantage mostly
//! disappears and the remaining benefit comes from dual-direction
//! vectorization and L1↔L2 traffic, so the paper sees much smaller (but
//! still positive) reductions than in Fig. 12.

use crate::experiments::{against_baseline, normalized, FigureTable};
use crate::{Harness, Scale};
use mda_sim::HierarchyKind;

/// Designs plotted by Fig. 13 (the paper shows 1P1L, 1P2L, 2P2L).
pub const PLOTTED: [HierarchyKind; 2] =
    [HierarchyKind::P1L2DifferentSet, HierarchyKind::P2L2Sparse];

/// Runs the cache-resident comparison.
pub fn run(harness: &Harness, scale: Scale) -> FigureTable {
    let n = scale.small_input();
    let [fig] = normalized(
        harness,
        "fig13",
        n,
        &against_baseline(&PLOTTED, |kind| scale.cache_resident_system(kind)),
        [(format!("Fig. 13 — normalized cycles, cache-resident ({n}×{n}, 2-level LLC)"), |r| {
            r.cycles as f64
        })],
    );
    fig
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig12;

    #[test]
    fn resident_latency_is_still_reduced_on_average() {
        // Paper: "Latency is still reduced, on average" for the
        // cache-resident configuration.
        let resident = run(Harness::shared(), Scale::Tiny);
        for design in ["1P2L", "2P2L"] {
            let res = resident.average(design).expect("series");
            assert!(res < 1.0, "{design} resident average {res} regressed");
        }
    }

    #[test]
    fn bandwidth_bound_kernel_benefits_less_when_resident() {
        // The mechanism behind the paper's Fig. 13: kernels whose MDA win
        // comes from memory bandwidth (sobel is the purest case — almost
        // all column volume, no op-count reduction beyond vectorization of
        // a cheap stencil) lose most of that win once the working set is
        // LLC-resident. Compute-vectorization-dominated kernels keep
        // their µop advantage in cache, which our issue-bound core model
        // weights more heavily than the paper's (see EXPERIMENTS.md).
        let resident = run(Harness::shared(), Scale::Tiny);
        let non_resident =
            fig12::run_one(Harness::shared(), Scale::Tiny, Scale::Tiny.llc_sweep()[0]);
        let res = resident.value("1P2L", "sobel").expect("sobel series");
        let non = non_resident.value("1P2L", "sobel").expect("sobel series");
        assert!(res > non, "sobel resident {res} should benefit less than non-resident {non}");
    }
}

//! Fig. 17: benefits compared with, and in the presence of, a 1.6× faster
//! main memory.
//!
//! Two questions from the paper: does the approach keep helping as memory
//! gets faster (yes, similar trends), and does MDA caching on a *slower*
//! MDA memory still beat a conventional hierarchy on a faster conventional
//! memory (yes — 1P2L on base memory beats 1P1L-fast)?

use crate::experiments::{normalized, FigureTable};
use crate::{Harness, Scale};
use mda_sim::{HierarchyKind, SystemConfig};

/// Runs the study. Every series is normalized to the *base-speed* 1P1L
/// baseline, so `1P1L-fast` itself appears as a series too, exactly like
/// the paper's plot.
pub fn run(harness: &Harness, scale: Scale) -> FigureTable {
    let n = scale.input();
    let variants: Vec<(String, SystemConfig)> = [
        HierarchyKind::Baseline1P1L,
        HierarchyKind::P1L2DifferentSet,
        HierarchyKind::P1L2SameSet,
        HierarchyKind::P2L2Sparse,
    ]
    .into_iter()
    .flat_map(|kind| {
        let base = (kind.name().to_string(), scale.system(kind));
        let fast = (format!("{}-fast", kind.name()), scale.system(kind).with_fast_memory());
        [base, fast]
    })
    .collect();

    // The base-speed 1P1L run is the first variant: it supplies the
    // normalizer and is not plotted (all 1.0).
    let [fig] = normalized(
        harness,
        "fig17",
        n,
        &variants,
        [(format!("Fig. 17 — sensitivity to a 1.6× faster main memory ({n}×{n})"), |r| {
            r.cycles as f64
        })],
    );
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trends_hold_with_faster_memory() {
        let fig = run(Harness::shared(), Scale::Tiny);
        let base_fast = fig.average("1P1L-fast").expect("series");
        let mda_fast = fig.average("1P2L-fast").expect("series");
        assert!(mda_fast < base_fast, "1P2L-fast should beat 1P1L-fast");
    }

    #[test]
    fn slower_mda_memory_still_competitive_with_fast_conventional() {
        // The paper's strongest claim: 1P2L on the base-speed memory
        // outperforms the baseline on the 1.6× faster memory.
        let fig = run(Harness::shared(), Scale::Tiny);
        let mda_base = fig.average("1P2L").expect("series");
        let base_fast = fig.average("1P1L-fast").expect("series");
        assert!(
            mda_base < base_fast,
            "1P2L on base memory ({mda_base}) should beat 1P1L-fast ({base_fast})"
        );
    }
}

//! Design ablations called out in the paper's design discussion
//! (Sec. IV-C):
//!
//! * **Layout mismatch** — running the 1P1L hierarchy on the 2-D-optimized
//!   memory layout "could incur average slowdowns on the order of 2×, due
//!   to the mismatch between data layout and access pattern as well as
//!   extra data traffic caused by padding". Every headline experiment
//!   therefore pairs each hierarchy with its own layout; this ablation
//!   quantifies the mismatch penalty.
//! * **Dense vs. sparse 2P2L fill** — the paper elides dense 2-D blocks
//!   ("given the large transfer unit … we directly explore a variant that
//!   supports sparse occupancy"); this ablation shows why.

use crate::experiments::{against_baseline, normalized, FigureTable};
use crate::scale::Scale;
use mda_compiler::CodegenOptions;
use mda_sim::HierarchyKind;

/// Runs the layout-mismatch ablation: 1P1L on its native 1-D layout versus
/// 1P1L forced onto the 2-D (MDA-optimized) layout.
pub fn layout_mismatch(scale: Scale) -> FigureTable {
    let n = scale.input();
    let mut mismatched_cfg = scale.system(HierarchyKind::Baseline1P1L);
    mismatched_cfg.codegen = CodegenOptions::baseline_on_mda_layout();
    let [fig] = normalized(
        "ablation_layout",
        n,
        &[
            ("base".to_string(), scale.system(HierarchyKind::Baseline1P1L)),
            ("1P1L-on-2D-layout".to_string(), mismatched_cfg),
        ],
        [(
            format!("Ablation — 1P1L on a 2-D-optimized layout, normalized cycles ({n}×{n})"),
            |r| r.cycles as f64,
        )],
    );
    fig
}

/// Runs the dense-fill ablation: sparse versus dense 2P2L LLC, normalized
/// to the baseline.
pub fn dense_fill(scale: Scale) -> FigureTable {
    let n = scale.input();
    let [fig] = normalized(
        "ablation_dense",
        n,
        &against_baseline(&[HierarchyKind::P2L2Sparse, HierarchyKind::P2L2Dense], |kind| {
            scale.system(kind)
        }),
        [(format!("Ablation — sparse vs dense 2P2L fill, normalized cycles ({n}×{n})"), |r| {
            r.cycles as f64
        })],
    );
    fig
}

/// Runs the multiple-sub-row-buffer study of paper Sec. IX-B: the paper
/// "implemented a multiple row-buffer scheme and found it to have a less
/// than 1 % impact" on its single-threaded workloads, because strided
/// column accesses still activate a new row per access. Both the baseline
/// and the 1P2L design are re-run with four sub-buffers per orientation,
/// normalized to their own single-buffer variants.
pub fn sub_row_buffers(scale: Scale) -> FigureTable {
    let n = scale.input();
    let title =
        format!("Ablation — 4 sub-row buffers per bank, cycles normalized to 1 buffer ({n}×{n})");
    // One grid per design, each normalized to its own 1-buffer run.
    let [mut fig, p1l2] =
        [HierarchyKind::Baseline1P1L, HierarchyKind::P1L2DifferentSet].map(|kind| {
            let mut multi_cfg = scale.system(kind);
            multi_cfg.mem.sub_buffers = 4;
            let series = [
                (format!("{}+1buf", kind.name()), scale.system(kind)),
                (format!("{}+4buf", kind.name()), multi_cfg),
            ];
            let [fig] =
                normalized("ablation_subbuf", n, &series, [(title.clone(), |r| r.cycles as f64)]);
            fig
        });
    fig.series.extend(p1l2.series);
    fig
}

/// Runs the taxonomy-completion ablation: the 2P1L design point the paper
/// elides (Sec. IV-A). A physically 2-D NVM LLC that still serves only
/// rows is compared against the 1P1L baseline and the logically 2-D
/// designs — isolating how much of the MDA benefit comes from the physical
/// array (≈ none) versus from logically 2-D caching (≈ all of it).
pub fn taxonomy_2p1l(scale: Scale) -> FigureTable {
    let n = scale.input();
    let [fig] = normalized(
        "ablation_2p1l",
        n,
        &against_baseline(&[HierarchyKind::P2L1, HierarchyKind::P2L2Sparse], |kind| {
            scale.system(kind)
        }),
        [(format!("Ablation — 2P1L taxonomy point, normalized cycles ({n}×{n})"), |r| {
            r.cycles as f64
        })],
    );
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_mismatch_slows_the_baseline_down() {
        let fig = layout_mismatch(Scale::Tiny);
        let avg = fig.average("1P1L-on-2D-layout").expect("series");
        assert!(avg > 1.1, "layout mismatch should clearly hurt, got {avg}");
    }

    #[test]
    fn sparse_fill_beats_dense_fill() {
        let fig = dense_fill(Scale::Tiny);
        let sparse = fig.average("2P2L").expect("series");
        let dense = fig.average("2P2L_Dense").expect("series");
        assert!(sparse < dense, "sparse {sparse} must beat dense {dense}");
    }

    #[test]
    fn physical_dimensionality_alone_buys_nothing() {
        // The 2P1L point tracks the 1P1L baseline closely (it serves the
        // identical row-only stream) while the logically 2-D 2P2L wins big:
        // the benefit comes from expressing column preference, not from
        // the array technology.
        let fig = taxonomy_2p1l(Scale::Tiny);
        let p2l1 = fig.average("2P1L").expect("series");
        let p2l2 = fig.average("2P2L").expect("series");
        assert!((p2l1 - 1.0).abs() < 0.25, "2P1L should track the baseline, got {p2l1}");
        assert!(p2l2 < p2l1 - 0.2, "logical 2-D ({p2l2}) must clearly beat 2P1L ({p2l1})");
    }

    #[test]
    fn sub_row_buffers_never_hurt_and_matter_little_for_mda() {
        // Paper Sec. IX-B reports < 1% impact at 512×512 — a column walk
        // touches hundreds of distinct physical rows, far beyond four
        // buffers. At this test's tiny scale a 64-element column spans few
        // physical rows, so the *baseline* captures some reuse (EXPERIMENTS
        // .md records the at-scale numbers); the MDA design, which opens a
        // column buffer once per line anyway, stays within noise.
        let fig = sub_row_buffers(Scale::Tiny);
        for series in ["1P1L+4buf", "1P2L+4buf"] {
            let avg = fig.average(series).expect("series");
            assert!(avg <= 1.02, "{series}: extra buffers should never hurt, got {avg}");
        }
        let mda = fig.average("1P2L+4buf").expect("series");
        assert!(
            (mda - 1.0).abs() < 0.10,
            "1P2L: sub-row buffers moved cycles by {:.1}%",
            (mda - 1.0) * 100.0
        );
    }
}

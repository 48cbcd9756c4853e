//! Fig. 12: execution cycles normalized to the prefetching 1P1L baseline,
//! for the four LLC capacities of the sweep (paper: 1 / 1.5 / 2 / 4 MB with
//! 512×512 inputs).

use crate::experiments::{against_baseline, normalized, FigureTable};
use crate::fig11::PLOTTED;
use crate::{Harness, Scale};

/// Runs the sweep: one normalized-cycles figure per LLC capacity.
pub fn run(harness: &Harness, scale: Scale) -> Vec<(u64, FigureTable)> {
    scale.llc_sweep().into_iter().map(|llc| (llc, run_one(harness, scale, llc))).collect()
}

/// Runs one LLC point of the sweep.
pub fn run_one(harness: &Harness, scale: Scale, llc: u64) -> FigureTable {
    let n = scale.input();
    let [fig] = normalized(
        harness,
        "fig12",
        n,
        &against_baseline(&PLOTTED, |kind| scale.system_with_llc(kind, llc)),
        [(
            format!("Fig. 12 — normalized total cycles, LLC = {} KB ({n}×{n})", llc / 1024),
            |r| r.cycles as f64,
        )],
    );
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mda_designs_beat_the_baseline_at_the_smallest_llc() {
        // The paper's headline: large average reductions at the 1 MB point.
        let fig = run_one(Harness::shared(), Scale::Tiny, Scale::Tiny.llc_sweep()[0]);
        for design in ["1P2L", "1P2L_SameSet", "2P2L"] {
            let avg = fig.average(design).expect("series present");
            assert!(avg < 0.8, "{design} average {avg} not a clear win");
        }
    }
}

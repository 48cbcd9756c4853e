//! Extension (paper Sec. III): memory-system energy.
//!
//! The paper argues that column-mode transfers reduce row-buffer
//! operations and data movement, "further enhancing efficiencies", but
//! does not quantify it. This experiment prices the simulator's event
//! counts with an STT-class [`EnergyModel`] and reports each design's
//! memory-system energy normalized to the prefetching baseline.

use crate::experiments::{against_baseline, normalized, FigureTable};
use crate::fig11::PLOTTED;
use crate::scale::Scale;
use mda_sim::EnergyModel;

/// Runs the energy comparison (memory-system energy, normalized).
pub fn run(scale: Scale) -> FigureTable {
    let n = scale.input();
    let [fig] = normalized(
        "ext_energy",
        n,
        &against_baseline(&PLOTTED, |kind| scale.system(kind)),
        [(
            format!("Extension — memory-system energy normalized to 1P1L+prefetch ({n}×{n})"),
            |r| EnergyModel::stt().memory_energy_nj(r),
        )],
    );
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mda_designs_cut_memory_energy_across_the_suite() {
        let fig = run(Scale::Tiny);
        for design in ["1P2L", "1P2L_SameSet", "2P2L"] {
            let avg = fig.average(design).expect("series");
            assert!(avg < 0.6, "{design}: memory energy only fell to {avg:.2}");
        }
    }
}

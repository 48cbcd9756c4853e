//! Extension (paper Sec. X, future work): hardware/software collaborative
//! tiling — "the compiler can tile a loop nest such that the tile size (in
//! each dimension) matches the 2-D block size used by the 2P2L cache … We
//! expect such hardware-software collaborative tiling to generate better
//! results than software tiling or hardware tiling (2P2L) alone."
//!
//! This experiment runs `sgemm` in four configurations against the
//! prefetching baseline: the 1P2L and 2P2L hierarchies, each with and
//! without 8×8×8 iteration-space tiling, so "software-only", "hardware-
//! only" and "collaborative" tiling can be compared directly.

use crate::experiments::FigureTable;
use crate::scale::Scale;
use mda_compiler::{tile_program, Program, TraceSource};
use mda_sim::{simulate, HierarchyKind, SystemConfig};
use mda_workloads::sgemm;

/// Tile sizes matched to the 8×8-word MDA block.
pub const BLOCK: i64 = 8;

/// Builds the 8×8×8-blocked sgemm.
///
/// # Panics
/// Panics if `n` is not a multiple of the block size (rectangular tiling
/// only).
fn sgemm_blocked(n: u64) -> Program {
    tile_program(&sgemm(n), |_, nest| {
        // Tile every rectangular loop of the (j, i, k) nest.
        Some((0..nest.depth()).map(|v| (v, BLOCK)).collect())
    })
    .expect("sgemm is rectangular and divisible by the block size")
}

/// Runs the comparison. Values are cycles normalized to the untiled
/// prefetching baseline; series order is software-only → hardware-only →
/// collaborative.
pub fn run(scale: Scale) -> FigureTable {
    let n = scale.input();
    let plain = sgemm(n);
    let blocked = sgemm_blocked(n);

    // The baseline rides along as variant 0 so all five simulations share
    // one fan-out.
    let variants: [(&str, &Program, SystemConfig); 5] = [
        ("base", &plain, scale.system(HierarchyKind::Baseline1P1L)),
        ("1P2L", &plain, scale.system(HierarchyKind::P1L2DifferentSet)),
        ("1P2L+tiling", &blocked, scale.system(HierarchyKind::P1L2DifferentSet)),
        ("2P2L", &plain, scale.system(HierarchyKind::P2L2Sparse)),
        ("2P2L+tiling", &blocked, scale.system(HierarchyKind::P2L2Sparse)),
    ];
    let cycles = crate::parallel::par_map(&variants, |(_, program, cfg)| {
        simulate(*program as &dyn TraceSource, cfg).cycles
    });
    let base = cycles[0];
    let mut fig = FigureTable::new(
        format!("Extension — collaborative tiling on sgemm, normalized cycles ({n}×{n})"),
        vec!["sgemm".to_string()],
    );
    for ((name, _, _), c) in variants.iter().zip(&cycles).skip(1) {
        fig.push_series(*name, vec![*c as f64 / base.max(1) as f64]);
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;
    use mda_compiler::trace::count_ops;
    use mda_compiler::CodegenOptions;

    #[test]
    fn blocked_sgemm_keeps_volume_close_and_footprint_identical() {
        let plain = count_ops(&sgemm(32), &CodegenOptions::mda());
        let blocked = count_ops(&sgemm_blocked(32), &CodegenOptions::mda());
        // Blocking shrinks the register-promotion scope of the C
        // accumulator (one read+write per k-block instead of per (i, j)),
        // so the access volume grows slightly — but only slightly.
        assert!(blocked.bytes >= plain.bytes);
        assert!(
            blocked.bytes <= plain.bytes + plain.bytes / 5,
            "{} vs {}",
            blocked.bytes,
            plain.bytes
        );
    }

    #[test]
    fn collaborative_tiling_beats_hardware_tiling_alone() {
        let fig = run(Scale::Tiny);
        let hw = fig.value("2P2L", "sgemm").expect("series");
        let collab = fig.value("2P2L+tiling", "sgemm").expect("series");
        assert!(collab < hw, "collaborative ({collab:.3}) should beat hardware-only ({hw:.3})");
    }

    #[test]
    fn tiling_also_helps_the_1p2l_hierarchy() {
        let fig = run(Scale::Tiny);
        let sw = fig.value("1P2L+tiling", "sgemm").expect("series");
        let plain = fig.value("1P2L", "sgemm").expect("series");
        assert!(sw < plain * 1.05, "tiling should not hurt 1P2L ({plain:.3} → {sw:.3})");
    }
}

//! Quickstart: simulate one kernel on the baseline and on each MDA cache
//! hierarchy, and compare what the paper compares.
//!
//! ```text
//! cargo run --release --example quickstart [n]
//! ```

use mdacache::sim::{simulate, HierarchyKind, SystemConfig};
use mdacache::workloads::sgemm;

fn main() {
    let n: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(128);
    println!("sgemm {n}×{n} on the scaled system\n");

    // The conventional hierarchy runs with stride prefetching on the
    // 1-D-optimized layout; every MDA design runs without prefetching on
    // the tiled, intra-array-padded layout — exactly the paper's pairing.
    let program = sgemm(n);
    let baseline = simulate(&program, &SystemConfig::scaled(HierarchyKind::Baseline1P1L));
    println!(
        "{:14} {:>12} cycles  L1 hit {:>5.1}%  memory traffic {:>7} KB",
        "1P1L+prefetch",
        baseline.cycles,
        baseline.l1_hit_rate() * 100.0,
        baseline.llc_memory_bytes() / 1024,
    );

    for kind in
        [HierarchyKind::P1L2DifferentSet, HierarchyKind::P1L2SameSet, HierarchyKind::P2L2Sparse]
    {
        let r = simulate(&program, &SystemConfig::scaled(kind));
        println!(
            "{:14} {:>12} cycles  L1 hit {:>5.1}%  memory traffic {:>7} KB  ({:.0}% faster)",
            r.design,
            r.cycles,
            r.l1_hit_rate() * 100.0,
            r.llc_memory_bytes() / 1024,
            (1.0 - r.normalized_cycles(&baseline)) * 100.0,
        );
    }
}

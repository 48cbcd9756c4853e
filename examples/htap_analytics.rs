//! The column-store motivation (paper Sec. V-A, last paragraph): an HTAP
//! table where transactions want rows and analytics want columns, served
//! by one MDA layout without a transpose.
//!
//! ```text
//! cargo run --release --example htap_analytics [fields]
//! ```

use mdacache::compiler::trace::access_mix;
use mdacache::sim::{simulate, HierarchyKind, SystemConfig};
use mdacache::workloads::{htap1, htap2, HtapWorkload};

fn main() {
    let fields: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(256);
    println!("HTAP over a 2048 × {fields} table of 64-bit fields\n");

    for workload in [htap1(fields), htap2(fields)] {
        report(&workload);
    }

    // A custom mix is one constructor away.
    println!("-- custom 50/50 mix --");
    report(&HtapWorkload::new("htap-custom", fields, 64, 1024, 42));
}

fn report(w: &HtapWorkload) {
    use mdacache::compiler::trace::TraceSource;
    let cfg_base = SystemConfig::scaled(HierarchyKind::Baseline1P1L);
    let mix = access_mix(w, &cfg_base.codegen);
    println!("{:12} column volume {:>5.1}%", w.name(), mix.col_fraction() * 100.0);
    let base = simulate(w, &cfg_base);
    println!(
        "  1P1L+prefetch: {:>11} cycles  {:>8} KB memory traffic",
        base.cycles,
        base.llc_memory_bytes() / 1024
    );
    for kind in [HierarchyKind::P1L2DifferentSet, HierarchyKind::P2L2Sparse] {
        let r = simulate(w, &SystemConfig::scaled(kind));
        println!(
            "  {:12} {:>11} cycles  {:>8} KB memory traffic  ({:.0}% less time)",
            r.design,
            r.cycles,
            r.llc_memory_bytes() / 1024,
            (1.0 - r.normalized_cycles(&base)) * 100.0
        );
    }
    println!();
}

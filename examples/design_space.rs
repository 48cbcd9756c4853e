//! Sweep the MDA cache design space for one kernel: every hierarchy design
//! × LLC capacity, plus the technology sensitivity knobs (write asymmetry,
//! faster memory).
//!
//! ```text
//! cargo run --release --example design_space [kernel] [n]
//! ```

use mdacache::sim::{simulate, HierarchyKind, SystemConfig};
use mdacache::workloads::Kernel;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let kernel =
        args.get(1).map(|s| Kernel::parse(s).expect("kernel name")).unwrap_or(Kernel::Strmm);
    let n: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(128);
    let src = kernel.build(n);

    println!("design space for {kernel} ({n}×{n})\n");
    println!(
        "{:>11}  {:>14} {:>14} {:>14} {:>14} {:>14}",
        "LLC", "1P1L+pf", "1P2L", "1P2L_SameSet", "2P2L", "2P2L_Dense"
    );
    for llc_kb in [64u64, 128, 256, 512] {
        print!("{llc_kb:>9}KB  ");
        let mut base = 1u64;
        for kind in HierarchyKind::all() {
            let mut cfg = SystemConfig::scaled(kind);
            cfg.l3 = Some(mdacache::cache::CacheConfig::l3(llc_kb * 1024));
            let r = simulate(src.as_ref(), &cfg);
            if kind == HierarchyKind::Baseline1P1L {
                base = r.cycles;
                print!("{:>14}", r.cycles);
            } else {
                print!("{:>14}", format!("{:.3}", r.cycles as f64 / base as f64));
            }
        }
        println!();
    }

    println!("\ntechnology sensitivity (256 KB LLC, normalized to 1P1L+pf):");
    let base = simulate(src.as_ref(), &SystemConfig::scaled(HierarchyKind::Baseline1P1L));
    let variants: [(&str, SystemConfig); 4] = [
        ("2P2L", SystemConfig::scaled(HierarchyKind::P2L2Sparse)),
        (
            "2P2L +20cyc writes",
            SystemConfig::scaled(HierarchyKind::P2L2Sparse).with_llc_write_penalty(20),
        ),
        (
            "1P2L on 1.6x memory",
            SystemConfig::scaled(HierarchyKind::P1L2DifferentSet).with_fast_memory(),
        ),
        (
            "1P1L on 1.6x memory",
            SystemConfig::scaled(HierarchyKind::Baseline1P1L).with_fast_memory(),
        ),
    ];
    for (name, cfg) in variants {
        let r = simulate(src.as_ref(), &cfg);
        println!("  {:22} {:.3}", name, r.cycles as f64 / base.cycles as f64);
    }
}

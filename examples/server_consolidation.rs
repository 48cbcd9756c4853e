//! Multi-programmed scenario: a consolidated server running analytics,
//! transactions and image processing side by side on private L1/L2s, a
//! shared LLC and one shared MDA memory (the paper's Sec. IX-B
//! parallel-workload outlook).
//!
//! ```text
//! cargo run --release --example server_consolidation [n]
//! ```

use mdacache::compiler::trace::TraceSource;
use mdacache::sim::multicore::simulate_multicore;
use mdacache::sim::{HierarchyKind, SystemConfig};
use mdacache::workloads::Kernel;

fn main() {
    let n: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(64);
    let mix = [Kernel::Htap1, Kernel::Htap2, Kernel::Sobel, Kernel::Sobel];
    println!("4-core consolidation: {} (inputs sized {n})\n", mix.map(|k| k.name()).join(" + "));

    let sources: Vec<Box<dyn TraceSource>> = mix.iter().map(|k| k.build(n)).collect();
    let refs: Vec<&dyn TraceSource> = sources.iter().map(|s| s.as_ref()).collect();

    let mut base_makespan = 1;
    for kind in
        [HierarchyKind::Baseline1P1L, HierarchyKind::P1L2DifferentSet, HierarchyKind::P2L2Sparse]
    {
        let cfg = SystemConfig::tiny(kind);
        let r = simulate_multicore(&refs, &cfg);
        if kind == HierarchyKind::Baseline1P1L {
            base_makespan = r.makespan;
        }
        println!(
            "{:14} makespan {:>10} cycles ({:>5.1}% of baseline)   shared-LLC hit rate {:>5.1}%",
            kind.name(),
            r.makespan,
            r.makespan as f64 / base_makespan as f64 * 100.0,
            r.llc().hit_rate() * 100.0,
        );
        for (name, cycles, ops) in &r.per_core {
            println!(
                "    core {:6} {:>10} cycles for {:>8} memory µops",
                name, cycles, ops.mem_ops
            );
        }
    }
}

//! Trace locality CLI: generates a kernel's trace for the conventional and
//! the MDA target and prints, for each, the op mix, the Fig. 10-style volume
//! split and reuse-distance miss curves at both line granularities.
//!
//! ```text
//! trace-stats compare <kernel> <n>
//! ```

use mda_bench::chart;
use mda_bench::table::TextTable;
use mda_compiler::reuse::{ReuseGranularity, ReuseProfile};
use mda_compiler::trace::{access_mix, count_ops, TraceSource};
use mda_compiler::CodegenOptions;
use mda_workloads::Kernel;

fn usage() -> ! {
    eprintln!("usage: trace-stats compare <kernel> <n>");
    std::process::exit(2);
}

fn analyze(src: &dyn TraceSource, opts: &CodegenOptions) {
    let counts = count_ops(src, opts);
    println!(
        "{}: {} memory µops ({} vector), {} compute µops, {} KB touched",
        src.name(),
        counts.mem_ops,
        counts.vector_mem_ops,
        counts.compute_uops,
        counts.bytes / 1024
    );

    let mix = access_mix(src, opts);
    let (rs, rv, cs, cv) = mix.fractions();
    println!(
        "  volume: {:.1}% row-scalar, {:.1}% row-vector, {:.1}% col-scalar, {:.1}% col-vector",
        rs * 100.0,
        rv * 100.0,
        cs * 100.0,
        cv * 100.0
    );

    for (label, granularity) in [
        ("row-line reuse", ReuseGranularity::RowLines),
        ("oriented-line reuse", ReuseGranularity::OrientedLines),
    ] {
        let profile = ReuseProfile::collect(src, opts, granularity);
        let caps: Vec<u64> = (0..14).map(|i| 1u64 << i).collect();
        let curve = profile.miss_curve(&caps);
        let misses: Vec<f64> = curve.iter().map(|(_, m)| *m).collect();
        println!(
            "  {label}: {} lines footprint, mean distance {:.1}",
            profile.footprint_lines(),
            profile.mean_distance().unwrap_or(0.0)
        );
        println!("    miss curve 1→8K lines: {}", chart::sparkline(&misses));
        let mut t = TextTable::new(vec!["capacity (lines)".into(), "miss rate".into()]);
        for (c, m) in curve.iter().step_by(3) {
            t.push_row(vec![format!("{c}"), format!("{:.3}", m)]);
        }
        for line in t.render().lines() {
            println!("    {line}");
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [cmd, kernel, n] = &args[..] else { usage() };
    if cmd != "compare" {
        usage();
    }
    let kernel = Kernel::parse(kernel).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage()
    });
    let n: u64 = n.parse().unwrap_or_else(|_| usage());
    let src = kernel.build(n);
    println!("== conventional target ==");
    analyze(src.as_ref(), &CodegenOptions::baseline());
    println!("\n== MDA target ==");
    analyze(src.as_ref(), &CodegenOptions::mda());
}

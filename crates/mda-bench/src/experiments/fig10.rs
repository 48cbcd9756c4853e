//! Fig. 10: access orientation and size preferences in the target
//! workloads, by data volume (row/column × scalar/vector), for both input
//! sizes.
//!
//! This figure is a property of the compiled (MDA-target) trace, not of
//! any cache design, so it runs on the trace generator alone.

use crate::table::{fmt_pct, TextTable};
use crate::{Harness, Scale};
use mda_compiler::trace::{access_mix, AccessMix};
use mda_compiler::CodegenOptions;
use mda_workloads::Kernel;

/// One kernel's access mix at one input size.
#[derive(Debug, Clone, PartialEq)]
pub struct MixRow {
    /// Kernel name.
    pub kernel: String,
    /// Input size.
    pub n: u64,
    /// The volume breakdown.
    pub mix: AccessMix,
}

/// Computes the access mix of every kernel at both of the scale's input
/// sizes (the paper's 256×256 and 512×512 panels).
pub fn run(harness: &Harness, scale: Scale) -> Vec<MixRow> {
    let opts = CodegenOptions::mda();
    // Trace generation dominates here; each (size, kernel) pair is an
    // independent cell, fanned out across the worker pool.
    let inputs: Vec<(u64, Kernel)> = [scale.small_input(), scale.input()]
        .into_iter()
        .flat_map(|n| Kernel::all().map(|k| (n, k)))
        .collect();
    harness.par_map(&inputs, |(n, k)| {
        let src = k.build(*n);
        MixRow { kernel: k.name().into(), n: *n, mix: access_mix(src.as_ref(), &opts) }
    })
}

/// Renders the figure.
pub fn render(harness: &Harness, scale: Scale) -> String {
    let rows = run(harness, scale);
    let mut out = String::from("Fig. 10 — access-type distribution by data volume (MDA codegen)\n");
    for n in [scale.small_input(), scale.input()] {
        let mut t = TextTable::new(vec![
            "kernel".into(),
            "row scalar".into(),
            "row vector".into(),
            "col scalar".into(),
            "col vector".into(),
        ]);
        let mut totals = AccessMix::default();
        for r in rows.iter().filter(|r| r.n == n) {
            let (rs, rv, cs, cv) = r.mix.fractions();
            t.push_row(vec![r.kernel.clone(), fmt_pct(rs), fmt_pct(rv), fmt_pct(cs), fmt_pct(cv)]);
            totals.row_scalar += r.mix.row_scalar;
            totals.row_vector += r.mix.row_vector;
            totals.col_scalar += r.mix.col_scalar;
            totals.col_vector += r.mix.col_vector;
        }
        let (rs, rv, cs, cv) = totals.fractions();
        t.push_row(vec!["Average".into(), fmt_pct(rs), fmt_pct(rv), fmt_pct(cs), fmt_pct(cv)]);
        out.push_str(&format!("\n{n} × {n}\n{}", t.render()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kernel_exercises_column_preference() {
        // The paper's key observation from Fig. 10: all benchmarks use
        // column accesses, around 40% of total volume on average.
        let rows = run(Harness::shared(), Scale::Tiny);
        for r in &rows {
            assert!(r.mix.col_fraction() > 0.0, "{} has no column volume", r.kernel);
        }
        let avg: f64 = rows.iter().map(|r| r.mix.col_fraction()).sum::<f64>() / rows.len() as f64;
        assert!((0.25..=0.75).contains(&avg), "average column fraction {avg}");
    }

    #[test]
    fn render_mentions_both_sizes() {
        let out = render(Harness::shared(), Scale::Tiny);
        assert!(out.contains("32 × 32"));
        assert!(out.contains("64 × 64"));
    }
}

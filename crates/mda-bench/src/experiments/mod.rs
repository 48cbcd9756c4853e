//! One module per table/figure of the paper's evaluation.

pub mod ablation;
pub mod ext_energy;
pub mod ext_multicore;
pub mod ext_reliability;
pub mod ext_tiling;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod table1;

use crate::parallel::{run_cells, Cell, CellResult};
use crate::scale::Scale;
use crate::table::{fmt_ratio, TextTable};
use mda_sim::{simulate, HierarchyKind, SimReport, SystemConfig};
use mda_workloads::Kernel;

/// An experiment: its name on the `figures` command line and the function
/// that runs it once.
pub type Experiment = (&'static str, fn(Scale) -> Output);

/// Every experiment, in `figures all` order. This table is the only place
/// that maps an experiment name to its code.
pub const ALL: [Experiment; 14] = [
    ("table1", |s| Output::text(table1::render(s))),
    ("fig10", |s| Output::text(fig10::render(s))),
    ("fig11", |s| {
        let f = fig11::run(s);
        Output::panels([("fig11_hit_rate", f.hit_rate), ("fig11_fills", f.fills)])
    }),
    ("fig12", |s| {
        Output::panels(
            fig12::run(s).into_iter().map(|(llc, fig)| (format!("fig12_llc_{}k", llc / 1024), fig)),
        )
    }),
    ("fig13", |s| Output::panels([("fig13", fig13::run(s))])),
    ("fig14", |s| {
        let f = fig14::run(s);
        Output::panels([
            ("fig14_llc_accesses", f.llc_accesses),
            ("fig14_memory_bytes", f.memory_bytes),
        ])
    }),
    ("fig15", |s| Output::text(fig15::render(s))),
    ("fig16", |s| Output::panels([("fig16", fig16::run(s))])),
    ("fig17", |s| Output::panels([("fig17", fig17::run(s))])),
    ("ablation", |s| {
        Output::panels([
            ("ablation_layout", ablation::layout_mismatch(s)),
            ("ablation_dense", ablation::dense_fill(s)),
            ("ablation_subrow", ablation::sub_row_buffers(s)),
            ("ablation_2p1l", ablation::taxonomy_2p1l(s)),
        ])
    }),
    ("ext_tiling", |s| Output::panels([("ext_tiling", ext_tiling::run(s))])),
    ("ext_multicore", |s| Output::panels([("ext_multicore", ext_multicore::run(s))])),
    ("ext_energy", |s| Output::panels([("ext_energy", ext_energy::run(s))])),
    ("ext_reliability", |s| {
        let f = ext_reliability::run(s);
        Output::panels([
            ("ext_reliability_cycles", f.cycles),
            ("ext_reliability_retries", f.retries),
            ("ext_reliability_corrected", f.corrected),
        ])
    }),
];

/// The experiment called `name`, if there is one.
pub fn find(name: &str) -> Option<Experiment> {
    ALL.iter().find(|(n, _)| *n == name).copied()
}

/// What one run of an experiment produces: the text `figures` prints and
/// the CSV files it writes under `--csv`, both rendered from the same
/// result.
#[derive(Debug)]
pub struct Output {
    /// The aligned text tables.
    pub text: String,
    /// One `(file stem, CSV body)` pair per kernel × design panel.
    pub csvs: Vec<(String, String)>,
}

impl Output {
    /// Text with no CSV (table1, fig10 and fig15 are not kernel × design
    /// tables).
    fn text(text: String) -> Output {
        Output { text, csvs: Vec::new() }
    }

    /// Panels printed one after another, each also written as `stem.csv`.
    fn panels<S: Into<String>>(panels: impl IntoIterator<Item = (S, FigureTable)>) -> Output {
        let (texts, csvs): (Vec<String>, _) = panels
            .into_iter()
            .map(|(stem, fig)| (fig.render(), (stem.into(), fig.to_csv())))
            .unzip();
        Output { text: texts.join("\n"), csvs }
    }
}

/// The design list shared by the figure experiments and the `sweep`
/// binary: the prefetching baseline first, then the MDA designs of
/// Figs. 11–14 ([`fig11::PLOTTED`]).
pub fn designs() -> Vec<HierarchyKind> {
    std::iter::once(HierarchyKind::Baseline1P1L).chain(fig11::PLOTTED).collect()
}

/// A figure rendered as kernels × design-series of normalized values, with
/// the paper's trailing "Average" column.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureTable {
    /// Figure caption.
    pub title: String,
    /// Kernel names, one per row of the paper's x-axis.
    pub kernels: Vec<String>,
    /// One series per design: `(design name, value per kernel)`.
    pub series: Vec<(String, Vec<f64>)>,
}

impl FigureTable {
    /// Creates an empty figure table.
    pub fn new(title: impl Into<String>, kernels: Vec<String>) -> FigureTable {
        FigureTable { title: title.into(), kernels, series: Vec::new() }
    }

    /// Appends a design series.
    ///
    /// # Panics
    /// Panics if the series length does not match the kernel count.
    pub fn push_series(&mut self, design: impl Into<String>, values: Vec<f64>) {
        assert_eq!(values.len(), self.kernels.len(), "series length mismatch");
        self.series.push((design.into(), values));
    }

    /// The value for `(design, kernel)`.
    pub fn value(&self, design: &str, kernel: &str) -> Option<f64> {
        let k = self.kernels.iter().position(|x| x == kernel)?;
        let (_, vals) = self.series.iter().find(|(d, _)| d == design)?;
        vals.get(k).copied()
    }

    /// Arithmetic mean of a design's series (the paper reports arithmetic
    /// averages over benchmarks). Degraded cells (NaN) are skipped so one
    /// failed kernel does not wipe out the design's average; an all-NaN
    /// series averages to NaN.
    pub fn average(&self, design: &str) -> Option<f64> {
        let (_, vals) = self.series.iter().find(|(d, _)| d == design)?;
        if vals.is_empty() {
            return None;
        }
        let healthy: Vec<f64> = vals.iter().copied().filter(|v| !v.is_nan()).collect();
        if healthy.is_empty() {
            return Some(f64::NAN);
        }
        Some(healthy.iter().sum::<f64>() / healthy.len() as f64)
    }

    /// Renders the figure as CSV (kernels as rows, designs as columns,
    /// trailing Average row) for external plotting.
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;

        // Cells are formatted straight into the output buffer: no per-cell
        // `String` allocation.
        let mut out = String::from("kernel");
        for (d, _) in &self.series {
            out.push(',');
            out.push_str(d);
        }
        out.push('\n');
        let write_cell = |out: &mut String, v: f64| {
            if v.is_nan() {
                out.push_str(",degraded");
            } else {
                let _ = write!(out, ",{v:.6}");
            }
        };
        for (k, kernel) in self.kernels.iter().enumerate() {
            out.push_str(kernel);
            for (_, vals) in &self.series {
                write_cell(&mut out, vals[k]);
            }
            out.push('\n');
        }
        out.push_str("Average");
        for (d, _) in &self.series {
            write_cell(&mut out, self.average(d).unwrap_or(0.0));
        }
        out.push('\n');
        out
    }

    /// Renders the figure as an aligned table, kernels as rows, designs as
    /// columns, with an Average row.
    pub fn render(&self) -> String {
        let mut header = vec!["kernel".to_string()];
        header.extend(self.series.iter().map(|(d, _)| d.clone()));
        let mut t = TextTable::new(header);
        for (k, kernel) in self.kernels.iter().enumerate() {
            let mut row = vec![kernel.clone()];
            row.extend(self.series.iter().map(|(_, v)| fmt_ratio(v[k])));
            t.push_row(row);
        }
        let mut avg = vec!["Average".to_string()];
        avg.extend(self.series.iter().map(|(d, _)| fmt_ratio(self.average(d).unwrap_or(0.0))));
        t.push_row(avg);
        format!("{}\n{}", self.title, t.render())
    }
}

impl std::fmt::Display for FigureTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.render())
    }
}

/// Runs `kernel` at input size `n` on `cfg`.
pub fn run_kernel(kernel: Kernel, n: u64, cfg: &SystemConfig) -> SimReport {
    let src = kernel.build(n);
    simulate(src.as_ref(), cfg)
}

/// One panel of a [`normalized`] figure: its caption and the metric it
/// plots.
type Panel = (String, fn(&SimReport) -> f64);

/// The normalizer series `("base", 1P1L+prefetch)` followed by one series
/// per design in `plotted`, each built by `system`.
fn against_baseline(
    plotted: &[HierarchyKind],
    system: impl Fn(HierarchyKind) -> SystemConfig,
) -> Vec<(String, SystemConfig)> {
    std::iter::once(("base".to_string(), system(HierarchyKind::Baseline1P1L)))
        .chain(plotted.iter().map(|kind| (kind.name().to_string(), system(*kind))))
        .collect()
}

/// The kernel × design grid behind every normalized figure: simulates each
/// kernel at input size `n` on every `(label, config)` of `series` through
/// [`run_cells`], and returns one table per panel in which each series
/// after the first is its panel metric divided, kernel by kernel, by the
/// first series' (the normalizer is never plotted).
///
/// Cells are labeled `{figure}/{label}/{kernel}`, which is what
/// `MDA_PANIC_CELL` and the degraded-cell warnings match on. A cell that
/// panicked twice plots as NaN ("degraded"), and so does every value
/// normalized against it.
///
/// # Panics
/// Panics if `series` is empty.
fn normalized<const P: usize>(
    figure: &str,
    n: u64,
    series: &[(String, SystemConfig)],
    panels: [Panel; P],
) -> [FigureTable; P] {
    let kernels = Kernel::all();
    let cells: Vec<Cell> = series
        .iter()
        .flat_map(|(label, cfg)| {
            kernels.map(|k| Cell::new(format!("{figure}/{label}/{}", k.name()), k, n, cfg.clone()))
        })
        .collect();
    let outcomes = run_cells(&cells);
    let (base, plotted) = outcomes.split_at(kernels.len());
    panels.map(|(title, metric)| {
        let bases = metric_series(base, metric);
        let mut fig =
            FigureTable::new(title, kernels.iter().map(|k| k.name().to_string()).collect());
        for ((label, _), chunk) in series[1..].iter().zip(plotted.chunks(kernels.len())) {
            let values = metric_series(chunk, metric)
                .iter()
                .zip(&bases)
                .map(|(v, b)| norm(*v, *b))
                .collect();
            fig.push_series(label.clone(), values);
        }
        fig
    })
}

/// Extracts `metric` from each cell outcome, mapping degraded cells to NaN
/// (rendered as "degraded" downstream).
fn metric_series(chunk: &[CellResult], metric: impl Fn(&SimReport) -> f64) -> Vec<f64> {
    chunk
        .iter()
        .map(|r| match r {
            Ok(rep) => metric(rep),
            Err(_) => f64::NAN,
        })
        .collect()
}

/// Normalizes `value` against `base`, propagating degradation: NaN in
/// either operand yields NaN (unlike `f64::max`-style clamps, which would
/// silently swallow it), and a non-positive baseline yields 0.
fn norm(value: f64, base: f64) -> f64 {
    if value.is_nan() || base.is_nan() {
        f64::NAN
    } else if base <= 0.0 {
        0.0
    } else {
        value / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_table_lookup_and_average() {
        let mut f = FigureTable::new("t", vec!["a".into(), "b".into()]);
        f.push_series("1P2L", vec![0.2, 0.4]);
        assert_eq!(f.value("1P2L", "b"), Some(0.4));
        assert_eq!(f.value("2P2L", "b"), None);
        assert_eq!(f.value("1P2L", "zz"), None);
        assert!((f.average("1P2L").unwrap() - 0.3).abs() < 1e-12);
        let out = f.render();
        assert!(out.contains("Average"));
    }

    #[test]
    fn csv_has_header_rows_and_average() {
        let mut f = FigureTable::new("t", vec!["a".into(), "b".into()]);
        f.push_series("1P2L", vec![0.25, 0.75]);
        let csv = f.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "kernel,1P2L");
        assert_eq!(lines[1], "a,0.250000");
        assert_eq!(lines[2], "b,0.750000");
        assert_eq!(lines[3], "Average,0.500000");
    }

    #[test]
    #[should_panic(expected = "series length mismatch")]
    fn mismatched_series_panics() {
        let mut f = FigureTable::new("t", vec!["a".into()]);
        f.push_series("x", vec![0.1, 0.2]);
    }

    #[test]
    fn degraded_cells_render_as_degraded_everywhere() {
        let mut f = FigureTable::new("t", vec!["a".into(), "b".into()]);
        f.push_series("1P2L", vec![0.25, f64::NAN]);
        f.push_series("2P2L", vec![f64::NAN, f64::NAN]);
        // The average skips NaN; an all-NaN series averages to NaN.
        assert!((f.average("1P2L").unwrap() - 0.25).abs() < 1e-12);
        assert!(f.average("2P2L").unwrap().is_nan());
        let table = f.render();
        assert!(table.contains("degraded"), "table: {table}");
        assert!(table.contains("0.250"), "healthy cells survive: {table}");
        let csv = f.to_csv();
        assert!(csv.lines().any(|l| l == "b,degraded,degraded"), "csv: {csv}");
        assert!(csv.lines().any(|l| l == "Average,0.250000,degraded"), "csv: {csv}");
    }

    /// A `(base, invalid, valid)` series list at input size 24: the
    /// invalid config (no memory channels) panics in every cell.
    fn base_bad_good() -> [(String, SystemConfig); 3] {
        let good = SystemConfig::tiny(HierarchyKind::Baseline1P1L);
        let mut bad = good.clone();
        bad.mem.channels = 0;
        [("base".to_string(), good.clone()), ("bad".to_string(), bad), ("good".to_string(), good)]
    }

    #[test]
    fn normalized_skips_the_first_series_and_degrades_only_the_invalid_one() {
        let [fig] = normalized(
            "normalized_test",
            24,
            &base_bad_good(),
            [("t".to_string(), |r| r.cycles as f64)],
        );
        assert_eq!(fig.kernels.len(), Kernel::all().len());
        let names: Vec<&str> = fig.series.iter().map(|(d, _)| d.as_str()).collect();
        assert_eq!(names, ["bad", "good"], "the normalizer is never plotted");
        assert!(
            fig.series[0].1.iter().all(|v| v.is_nan()),
            "invalid config: {:?}",
            fig.series[0].1
        );
        assert!(fig.series[1].1.iter().all(|v| *v == 1.0), "neighbour: {:?}", fig.series[1].1);
    }

    #[test]
    fn normalized_against_an_invalid_normalizer_is_all_nan() {
        let [base, bad, good] = base_bad_good();
        let [fig] = normalized(
            "normalized_test",
            24,
            &[bad, base, good],
            [("t".to_string(), |r| r.cycles as f64)],
        );
        assert_eq!(fig.series.len(), 2);
        assert!(
            fig.series.iter().all(|(_, vals)| vals.iter().all(|v| v.is_nan())),
            "{:?}",
            fig.series
        );
    }

    #[test]
    fn norm_propagates_degradation() {
        assert!((norm(3.0, 2.0) - 1.5).abs() < 1e-12);
        assert!(norm(f64::NAN, 2.0).is_nan());
        assert!(norm(3.0, f64::NAN).is_nan());
        assert_eq!(norm(3.0, 0.0), 0.0);
    }
}

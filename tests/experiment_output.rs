//! One run of an experiment yields both its text and its CSVs: `figures
//! --csv` must not simulate a grid a second time to write the files.

use mda_bench::experiments;
use mda_bench::parallel;
use mda_bench::Scale;

/// One test body, because the cell counter is process-global: a second
/// test running alongside would add its cells to the count.
#[test]
fn one_run_renders_text_and_every_csv() {
    // (experiment, grid cells it simulates, CSV file stems it writes)
    let cases: [(&str, u64, &[&str]); 2] = [
        ("fig13", 21, &["fig13"]),
        (
            "ext_reliability",
            12,
            &["ext_reliability_cycles", "ext_reliability_retries", "ext_reliability_corrected"],
        ),
    ];
    for (name, cells, stems) in cases {
        let (_, run) = experiments::find(name).expect("known experiment");
        parallel::take_cell_count();
        let out = run(Scale::Tiny);
        assert_eq!(parallel::take_cell_count(), cells, "{name}: each cell simulated once");
        let names: Vec<&str> = out.csvs.iter().map(|(stem, _)| stem.as_str()).collect();
        assert_eq!(names, stems, "{name}: CSV file names");
        // Text and CSVs render the same result: every CSV row label is a
        // row of the printed table.
        for (stem, body) in &out.csvs {
            for line in body.lines().skip(1) {
                let label = line.split(',').next().unwrap_or_default();
                assert!(
                    out.text.lines().any(|l| l.split_whitespace().next() == Some(label)),
                    "{stem}: row {label} not in the text"
                );
            }
        }
    }
    assert!(experiments::find("nosuch").is_none());
}

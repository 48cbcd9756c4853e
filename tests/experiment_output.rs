//! One run of an experiment yields both its text and its CSVs: `figures
//! --csv` must not simulate a grid a second time to write the files.

use mda_bench::experiments;
use mda_bench::parallel::Harness;
use mda_bench::Scale;

/// Runs experiment `name` once at tiny scale on a fresh harness and checks
/// that it submits and simulates each of its `cells` once, writes the CSV
/// files `stems`, and that text and CSVs render the same result.
fn renders_text_and_csvs_from_one_run(name: &str, cells: u64, stems: &[&str]) {
    let (_, run) = experiments::find(name).expect("known experiment");
    let harness = Harness::new(2, None);
    let out = run(&harness, Scale::Tiny);
    assert_eq!(harness.take_counts(), (cells, cells), "{name}: each cell simulated once");
    let names: Vec<&str> = out.csvs.iter().map(|(stem, _)| stem.as_str()).collect();
    assert_eq!(names, stems, "{name}: CSV file names");
    // Every CSV row label is a row of the printed table.
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

#[test]
fn fig13_renders_text_and_csv_from_one_run() {
    renders_text_and_csvs_from_one_run("fig13", 21, &["fig13"]);
    assert!(experiments::find("nosuch").is_none());
}

#[test]
fn one_run_renders_text_and_every_csv() {
    renders_text_and_csvs_from_one_run(
        "ext_reliability",
        12,
        &["ext_reliability_cycles", "ext_reliability_retries", "ext_reliability_corrected"],
    );
}

//! The evaluation harness CLI: regenerates every table and figure of the
//! paper.
//!
//! ```text
//! figures <experiment|all> [--scale tiny|scaled|paper] [--csv DIR]
//!         [--jobs N] [--bench-timings]
//!
//! experiments: table1 fig10 fig11 fig12 fig13 fig14 fig15 fig16 fig17
//!              ablation ext_tiling ext_multicore ext_energy
//!              ext_reliability
//!
//! Every name is checked before the first experiment runs; an unknown
//! one exits 2 with nothing printed. Each experiment runs once and its
//! text and CSVs are rendered from that one result.
//!
//! --csv DIR additionally writes every table-shaped figure as CSV files
//! under DIR (for external plotting).
//!
//! --jobs N runs each experiment's simulation cells on N worker threads
//! (default: MDA_JOBS, else the machine's cores; a malformed MDA_JOBS is
//! reported at start-up). Output is byte-identical regardless of N;
//! --jobs 1 is the sequential harness.
//!
//! --bench-timings additionally writes BENCH_harness.json: one entry per
//! experiment with its wall-clock "seconds", the "cells" it submitted,
//! how many of them were "simulated" and the worker count ("jobs").
//! All experiments of one invocation share one harness, whose memo
//! simulates each distinct cell once, so an experiment whose cells an
//! earlier one already ran simulates fewer than it submits (ext_energy
//! after fig14 simulates none).
//! ```

use mda_bench::experiments::{self, Experiment};
use mda_bench::parallel::parse_jobs;
use mda_bench::{Harness, Scale};
use std::time::Instant;

fn usage() -> ! {
    let names: Vec<&str> = experiments::ALL.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "usage: figures <{}|all> [--scale tiny|scaled|paper] [--csv DIR] [--jobs N] [--bench-timings]",
        names.join("|")
    );
    std::process::exit(2);
}

/// Writes `name.csv` under `dir`; a write failure names the path and
/// aborts the run with a nonzero exit (a silently missing CSV is worse
/// than a dead harness).
fn emit_csv(dir: &std::path::Path, name: &str, csv: &str) {
    let path = dir.join(format!("{name}.csv"));
    match std::fs::write(&path, csv) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("error: failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Scaled;
    let mut targets: Vec<String> = Vec::new();
    let mut csv_dir: Option<std::path::PathBuf> = None;
    let mut bench_entries: Option<Vec<String>> = None;
    let mut jobs = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let Some(v) = it.next() else { usage() };
                scale = match Scale::parse(&v) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("{e}");
                        usage()
                    }
                };
            }
            "--csv" => {
                let Some(v) = it.next() else { usage() };
                csv_dir = Some(std::path::PathBuf::from(v));
            }
            "--jobs" => {
                let Some(v) = it.next() else { usage() };
                jobs = Some(parse_jobs(&v).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                }));
            }
            "--bench-timings" => bench_entries = Some(Vec::new()),
            "--help" | "-h" => usage(),
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() {
        usage();
    }
    // Every name is checked before the first experiment runs, so a typo
    // neither prints partial output nor creates the CSV directory.
    let mut chosen: Vec<Experiment> = Vec::new();
    for t in &targets {
        match experiments::find(t) {
            Some(e) => chosen.push(e),
            None if t == "all" => {}
            None => {
                eprintln!("unknown experiment '{t}'");
                usage()
            }
        }
    }
    if targets.iter().any(|t| t == "all") {
        chosen = experiments::ALL.to_vec();
    }
    if let Some(dir) = &csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
    let harness = Harness::from_env(jobs);
    eprintln!("scale: {scale}\n");
    for (name, run) in chosen {
        let t0 = Instant::now();
        let out = run(&harness, scale);
        println!("{}", out.text);
        let seconds = t0.elapsed().as_secs_f64();
        eprintln!("[{name} completed in {seconds:.1}s]\n");
        let (cells, simulated) = harness.take_counts();
        if let Some(entries) = &mut bench_entries {
            entries.push(format!(
                "  {{\"experiment\": \"{name}\", \"scale\": \"{scale}\", \"seconds\": {seconds:.3}, \
                 \"cells\": {cells}, \"simulated\": {simulated}, \"jobs\": {}}}",
                harness.jobs
            ));
        }
        if let Some(dir) = &csv_dir {
            for (stem, body) in &out.csvs {
                emit_csv(dir, stem, body);
            }
        }
    }
    if let Some(entries) = bench_entries {
        let path = "BENCH_harness.json";
        let json = format!("[\n{}\n]\n", entries.join(",\n"));
        match std::fs::write(path, json) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("error: failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

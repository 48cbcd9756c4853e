//! `perfbench`: the in-process side of the repository benchmark. `run.py`
//! builds and calls it; see README.md.
//!
//! ```text
//! perfbench run   <workload> [--seed N] [--seconds S] [--smoke]
//! perfbench trace <workload> [--seed N] [--seconds S] [--smoke]
//! perfbench setup <workload> [--seed N] [--smoke]
//! perfbench sample <workload>
//! ```
//!
//! `run` times the workload's set-up, then simulates its cells with
//! `mda_sim::simulate` in passes until `--seconds` have elapsed. `trace`
//! adds the per-layer ledger (`ledger.rs`) to every pass. `setup` only
//! times the set-up. `sample` runs the reference loop in the background of
//! a `figures` pass until its standard input closes. Every set-up slice and every cell is followed by the
//! reference loop (`calib.rs`), which scales its host time. Each prints
//! one JSON object as the last line of stdout, carrying every cell's
//! report digests; `run.py` checks them against the stored references.

mod calib;
mod cells;
mod digest;
mod ledger;

use calib::{Calibrator, Timed};
use cells::{Cell, SetupTimes, Sizes};
use ledger::{PassLedger, LEVELS};
use mda_sim::{simulate, SimReport};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Set-up (every cell built from scratch) is timed in slices of at least
/// this long, one before every pass, and reported as the median build: one
/// build takes microseconds, and spreading the samples over the run lets
/// them see the same machine the passes see.
const SETUP_SLICE_S: f64 = 0.025;

struct Args {
    mode: String,
    workload: String,
    seed: u64,
    seconds: f64,
    smoke: bool,
}

fn usage() -> String {
    format!(
        "usage: perfbench <run|trace|setup|sample> <{}> [--seed N] [--seconds S] [--smoke]",
        cells::WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mode = it.next().ok_or_else(usage)?;
    if !["run", "trace", "setup", "sample"].contains(&mode.as_str()) {
        return Err(usage());
    }
    let workload = it.next().ok_or_else(usage)?;
    if cells::plan(&workload).is_none() {
        return Err(format!("unknown workload '{workload}'\n{}", usage()));
    }
    let mut args = Args {
        mode,
        workload,
        seed: 1,
        seconds: 10.0,
        smoke: false,
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed expects an integer, got '{v}'"))?;
            }
            "--seconds" => {
                let v = it.next().ok_or("--seconds needs a value")?;
                args.seconds = match v.parse::<f64>() {
                    Ok(s) if s.is_finite() && s >= 0.0 => s,
                    _ => {
                        return Err(format!(
                            "--seconds expects a non-negative number, got '{v}'"
                        ))
                    }
                };
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown flag '{other}'\n{}", usage())),
        }
    }
    Ok(args)
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The set-up samples of a run: each build's host stage times, and its
/// total scaled by the reference loop around its slice.
#[derive(Default)]
struct Setup {
    host: Vec<SetupTimes>,
    scaled_s: Vec<f64>,
}

/// One set-up slice: builds every cell repeatedly, appending each build's
/// times to `setup`, and returns the last build.
fn setup_slice(
    plan: &cells::Plan,
    sizes: &Sizes,
    seed: u64,
    cal: &mut Calibrator,
    setup: &mut Setup,
) -> Vec<Cell> {
    let mut slice = Vec::new();
    let (cells, timed) = cal.time(|| {
        let start = Instant::now();
        loop {
            let (cells, times) = cells::build(plan, sizes, seed);
            slice.push(times);
            if start.elapsed().as_secs_f64() >= SETUP_SLICE_S {
                return cells;
            }
        }
    });
    let factor = timed.scaled_s / timed.host_s;
    setup
        .scaled_s
        .extend(slice.iter().map(|t| t.total_s() * factor));
    setup.host.extend(slice);
    cells
}

/// What every pass produced for one cell.
#[derive(Default)]
struct Outcome {
    digests: BTreeMap<u64, u64>,
    ops_digests: BTreeMap<u64, u64>,
    panics: u64,
    mem_ops: u64,
    /// The times of every pass that did not panic.
    times: Vec<Timed>,
}

/// Simulates every cell once; returns the summed host seconds of the
/// simulations and the reports (`None` for a cell that panicked).
fn untraced_pass(
    cells: &[Cell],
    outcomes: &mut [Outcome],
    cal: &mut Calibrator,
) -> (f64, Vec<Option<SimReport>>) {
    let mut seconds = 0.0;
    let reports = cells
        .iter()
        .zip(outcomes.iter_mut())
        .map(|(cell, out)| {
            let (result, timed) = cal.time(|| {
                catch_unwind(AssertUnwindSafe(|| {
                    simulate(cell.source.as_ref(), &cell.cfg)
                }))
            });
            seconds += timed.host_s;
            match result {
                Ok(r) => {
                    out.times.push(timed);
                    *out.digests.entry(digest::of_report(&r)).or_default() += 1;
                    *out.ops_digests.entry(digest::of_ops(&r)).or_default() += 1;
                    out.mem_ops = r.ops.mem_ops;
                    Some(r)
                }
                Err(_) => {
                    out.panics += 1;
                    None
                }
            }
        })
        .collect();
    (seconds, reports)
}

/// The timing metrics of one traced pass.
fn pass_layers(led: &PassLedger, untraced_s: f64, timer_ns: f64) -> BTreeMap<String, f64> {
    let untraced_ns = untraced_s * 1e9;
    let frac = |ns: f64| {
        if untraced_ns > 0.0 {
            ns / untraced_ns - 1.0
        } else {
            0.0
        }
    };
    let per_op = if led.trace_ops == 0 {
        0.0
    } else {
        led.generate.net_ns(timer_ns) / led.trace_ops as f64
    };
    let split_sum =
        led.generate.net_ns(timer_ns) + led.core.net_ns(timer_ns) + led.demand.net_ns(timer_ns);
    let mut m = BTreeMap::new();
    m.insert("mda_compiler.generate_ns_per_op".to_string(), per_op);
    m.insert(
        "mda_sim.core_ns_per_op".to_string(),
        led.core.ns_per_call(timer_ns),
    );
    m.insert(
        "mda_sim.hierarchy_ns_per_mem_op".to_string(),
        led.demand.ns_per_call(timer_ns),
    );
    m.insert(
        "mda_sim.trace_overhead_frac".to_string(),
        frac(led.split_ns as f64),
    );
    m.insert("mda_sim.split_gap_frac".to_string(), frac(split_sum));
    for (i, span) in led.levels.iter().enumerate() {
        m.insert(
            format!("mda_cache.l{}.ns_per_call", i + 1),
            span.ns_per_call(timer_ns),
        );
    }
    m.insert(
        "mda_cache.prefetch.ns_per_observe".to_string(),
        led.prefetch.ns_per_call(timer_ns),
    );
    m.insert(
        "mda_mem.ns_per_request".to_string(),
        led.mem.ns_per_call(timer_ns),
    );
    m
}

/// The exact count metrics of the untraced reports, summed over cells.
fn count_layers(reports: &[SimReport]) -> BTreeMap<String, f64> {
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let sum = |f: &dyn Fn(&SimReport) -> u64| reports.iter().map(f).sum::<u64>();
    let mut m = BTreeMap::new();
    let mem_ops = sum(&|r| r.ops.mem_ops);
    m.insert("mda_compiler.mem_ops".to_string(), mem_ops as f64);
    m.insert(
        "mda_compiler.vector_frac".to_string(),
        ratio(sum(&|r| r.ops.vector_mem_ops), mem_ops),
    );
    m.insert(
        "mda_compiler.compute_uops".to_string(),
        sum(&|r| r.ops.compute_uops) as f64,
    );
    m.insert("mda_sim.sim_cycles".to_string(), sum(&|r| r.cycles) as f64);
    for i in 0..LEVELS {
        let lvl = |f: fn(&mda_cache::CacheStats) -> u64| sum(&|r| r.levels.get(i).map_or(0, f));
        let name = |field: &str| format!("mda_cache.l{}.{field}", i + 1);
        m.insert(name("accesses"), lvl(|s| s.accesses) as f64);
        m.insert(
            name("hit_rate"),
            ratio(lvl(|s| s.hits), lvl(|s| s.accesses)),
        );
        m.insert(name("demand_fills"), lvl(|s| s.demand_fills) as f64);
        m.insert(name("writebacks_out"), lvl(|s| s.writebacks_out) as f64);
        m.insert(name("dup_writebacks"), lvl(|s| s.dup_writebacks) as f64);
        m.insert(
            name("extra_tag_accesses"),
            lvl(|s| s.extra_tag_accesses) as f64,
        );
        m.insert(name("mshr_stalls"), lvl(|s| s.mshr_stalls) as f64);
        m.insert(name("mshr_coalesced"), lvl(|s| s.mshr_coalesced) as f64);
    }
    m.insert(
        "mda_cache.l1.prefetch_fills".to_string(),
        sum(&|r| r.levels.first().map_or(0, |s| s.prefetch_fills)) as f64,
    );
    let reads = sum(&|r| r.mem.reads);
    m.insert("mda_mem.reads".to_string(), reads as f64);
    m.insert("mda_mem.writes".to_string(), sum(&|r| r.mem.writes) as f64);
    m.insert(
        "mda_mem.col_read_frac".to_string(),
        ratio(sum(&|r| r.mem.col_reads), reads),
    );
    m.insert(
        "mda_mem.buffer_hit_rate".to_string(),
        ratio(sum(&|r| r.mem.buffer_hits), reads),
    );
    m.insert(
        "mda_mem.activations".to_string(),
        sum(&|r| r.mem.activations) as f64,
    );
    m.insert(
        "mda_mem.write_drain_stalls".to_string(),
        sum(&|r| r.mem.write_drain_stalls) as f64,
    );
    m
}

/// A JSON number: every digit Rust's shortest round-trip form gives, and
/// 0 for a non-finite value.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn num_map(m: &BTreeMap<String, f64>) -> String {
    let body: Vec<String> = m
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", num(*v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn count_map(m: &BTreeMap<u64, u64>) -> String {
    let body: Vec<String> = m
        .iter()
        .map(|(k, v)| format!("\"{k:016x}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    if args.mode == "sample" {
        let loops: Vec<String> = calib::sample_until_eof().iter().map(|s| num(*s)).collect();
        println!(
            "{{\"loops\": [{}], \"nominal_loop_s\": {}, \"loop_sensitivity\": {}}}",
            loops.join(", "),
            num(calib::NOMINAL_S),
            num(calib::SAMPLED_SENSITIVITY)
        );
        return;
    }
    let sizes = Sizes::new(args.smoke);
    let plan = cells::plan(&args.workload).expect("workload validated by parse_args");
    let mut cal = Calibrator::new();
    let mut setup = Setup::default();
    let cells = setup_slice(&plan, &sizes, args.seed, &mut cal, &mut setup);
    let mut out = String::new();

    if args.mode == "setup" {
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < args.seconds {
            setup_slice(&plan, &sizes, args.seed, &mut cal, &mut setup);
        }
    } else {
        let traced = args.mode == "trace";
        let timer_ns = if traced { ledger::timer_cost_ns() } else { 0.0 };
        let mut outcomes: Vec<Outcome> = cells.iter().map(|_| Outcome::default()).collect();
        let mut walls = Vec::new();
        let mut pass_metrics: Vec<BTreeMap<String, f64>> = Vec::new();
        let mut last_reports;
        let mut split_mismatches = 0;
        let mut replay_gap = 0.0;
        let start = Instant::now();
        loop {
            if !walls.is_empty() {
                setup_slice(&plan, &sizes, args.seed, &mut cal, &mut setup);
            }
            let (wall, reports) = untraced_pass(&cells, &mut outcomes, &mut cal);
            walls.push(wall);
            // A cell that panicked is counted as failed and left out of the ledger.
            let (cells_ok, reports): (Vec<&Cell>, Vec<SimReport>) = cells
                .iter()
                .zip(reports)
                .filter_map(|(c, r)| Some((c, r?)))
                .unzip();
            if traced {
                let mut led = PassLedger::default();
                for cell in &cells_ok {
                    ledger::generate_only(cell, &mut led);
                }
                for (cell, report) in cells_ok.iter().zip(&reports) {
                    ledger::split_and_replay(cell, report, &mut led);
                }
                split_mismatches += led.split_mismatches;
                replay_gap = ledger::replay_gap(&led, &reports);
                pass_metrics.push(pass_layers(&led, wall, timer_ns));
            }
            last_reports = reports;
            // Stop before a pass that would overrun the measuring time.
            let pass_s = start.elapsed().as_secs_f64() / walls.len() as f64;
            if start.elapsed().as_secs_f64() + pass_s > args.seconds {
                break;
            }
        }
        // Each cell's own calm median, so a slow stretch of host time only
        // moves the cells it overlapped.
        let wall_s: f64 = outcomes.iter().map(|o| calib::calm_median(&o.times)).sum();
        let host_wall_s = median(&walls);
        let mem_ops: u64 = outcomes.iter().map(|o| o.mem_ops).sum();
        let cell_json: Vec<String> = cells
            .iter()
            .zip(&outcomes)
            .map(|(c, o)| {
                format!(
                    "{{\"label\": \"{}\", \"mem_ops\": {}, \"panics\": {}, \"digests\": {}, \"ops_digests\": {}}}",
                    c.label,
                    o.mem_ops,
                    o.panics,
                    count_map(&o.digests),
                    count_map(&o.ops_digests)
                )
            })
            .collect();
        let walls_json: Vec<String> = walls.iter().map(|w| num(*w)).collect();
        let _ = write!(
            out,
            ", \"wall_s\": {}, \"host_wall_s\": {}, \"pass_walls\": [{}], \"mem_ops\": {}, \"mops_per_s\": {}, \"cells\": [{}]",
            num(wall_s),
            num(host_wall_s),
            walls_json.join(", "),
            mem_ops,
            num(if host_wall_s > 0.0 {
                mem_ops as f64 / host_wall_s / 1e6
            } else {
                0.0
            }),
            cell_json.join(", ")
        );
        if traced {
            let mut layers = count_layers(&last_reports);
            for name in pass_metrics
                .first()
                .map(|m| m.keys().cloned().collect::<Vec<_>>())
                .unwrap_or_default()
            {
                let values: Vec<f64> = pass_metrics.iter().map(|m| m[&name]).collect();
                layers.insert(name, median(&values));
            }
            layers.insert("mda_cache.replay_gap_frac".to_string(), replay_gap);
            layers.insert(
                "mda_workloads.build_s".to_string(),
                stage(&setup.host, |t| t.sources_s),
            );
            layers.insert(
                "mda_sim.build_hierarchy_s".to_string(),
                stage(&setup.host, |t| t.hierarchies_s),
            );
            let _ = write!(
                out,
                ", \"timer_ns\": {}, \"split_mismatches\": {}, \"layers\": {}",
                num(timer_ns),
                split_mismatches,
                num_map(&layers)
            );
        }
    }
    let _ = write!(
        out,
        ", \"mode\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \"smoke\": {}, \
         \"sizes\": {{\"system\": \"tiny\", \"n\": {}, \"htap_records\": {}, \"htap_fields\": {}, \
         \"htap_scans\": {}, \"htap_txns\": {}}}, \"setup_s\": {}, \"host_setup_s\": {}, \"setup_reps\": {}, \
         \"loop_s\": {}, \"nominal_loop_s\": {}, \"loop_sensitivity\": {}}}",
        args.mode,
        args.workload,
        args.seed,
        args.smoke,
        sizes.n,
        mda_workloads::htap::HTAP_RECORDS,
        sizes.htap_fields,
        sizes.htap_scans,
        sizes.htap_txns,
        num(median(&setup.scaled_s)),
        num(stage(&setup.host, SetupTimes::total_s)),
        setup.host.len(),
        num(median(&cal.loops)),
        num(calib::NOMINAL_S),
        num(calib::SENSITIVITY),
    );
    println!("{{{}", out.trim_start_matches(", "));
}

/// The median of one set-up stage over every build.
fn stage(samples: &[SetupTimes], f: fn(&SetupTimes) -> f64) -> f64 {
    median(&samples.iter().map(f).collect::<Vec<_>>())
}

//! Design-space exploration CLI: sweep one system parameter across its
//! range for one kernel, printing normalized cycles per design.
//!
//! ```text
//! sweep <parameter> [--kernel sgemm] [--scale tiny|scaled|paper] [--jobs N]
//!       [--write-ber R] [--read-disturb R] [--retention-ber R]
//!       [--fault-seed N]
//!
//! parameters:
//!   llc        LLC capacity (the Fig. 12 axis, extended)
//!   mshrs      L1 MSHR count (miss-level parallelism)
//!   channels   memory channels
//!   prefetch   baseline prefetch degree
//!   subbuf     open row/column buffers per bank (Sec. IX-B)
//!   window     core instruction window
//!   ber        raw write bit-error rate (the reliability extension axis)
//! ```
//!
//! The `--write-ber`/`--read-disturb`/`--retention-ber`/`--fault-seed`
//! flags inject faults into every point of any sweep (all rates default to
//! 0, i.e. the fault-free devices of the paper's evaluation); the `ber`
//! parameter instead sweeps the write BER itself, with read-disturb and
//! retention scaled proportionally. A cell whose simulation panics is
//! reported on stderr and printed as `degraded`, leaving the rest of the
//! sweep intact.
//!
//! Every point × design cell goes through the `run_cells` of one
//! `mda_bench::Harness` (`--jobs N`, or the `MDA_JOBS` environment
//! variable; defaults to the machine's cores), so each distinct cell is
//! simulated once and `MDA_PANIC_CELL` drills sweep cells too.

use mda_bench::experiments::ext_reliability;
use mda_bench::parallel::{parse_jobs, Cell};
use mda_bench::{Harness, Scale};
use mda_sim::{FaultConfig, HierarchyKind, SystemConfig};
use mda_workloads::Kernel;

struct Point {
    label: String,
    cfgs: Vec<(String, SystemConfig)>,
}

/// Expands every design over `f`, attaching `faults` to each system.
fn designs(
    faults: FaultConfig,
    mut f: impl FnMut(HierarchyKind) -> SystemConfig,
) -> Vec<(String, SystemConfig)> {
    mda_bench::designs()
        .into_iter()
        .map(|k| {
            let mut cfg = f(k);
            cfg.mem.faults = faults;
            (k.name().to_string(), cfg)
        })
        .collect()
}

/// A sweep axis that sets one field of the default system:
/// `(parameter, row-label prefix, values, setter)`.
type Axis = (&'static str, &'static str, &'static [usize], fn(&mut SystemConfig, usize));

/// Every axis except `llc` and `ber`, in usage order.
const AXES: [Axis; 5] = [
    ("mshrs", "l1-mshrs", &[2, 4, 8, 16, 32], |c, v| c.l1.mshrs = v),
    ("channels", "channels", &[1, 2, 4, 8], |c, v| c.mem.channels = v),
    ("prefetch", "pf-degree", &[1, 2, 4, 8, 16], |c, v| c.prefetch_degree = v),
    ("subbuf", "sub-buffers", &[1, 2, 4, 8], |c, v| c.mem.sub_buffers = v),
    ("window", "window", &[16, 32, 64, 96, 192], |c, v| c.core.window = v),
];

fn points(param: &str, scale: Scale, faults: FaultConfig) -> Result<Vec<Point>, String> {
    let out = match param {
        "llc" => [1u64, 2, 4, 8, 16]
            .into_iter()
            .map(|mult| {
                let llc = scale.llc_sweep()[0] * mult / 2;
                Point {
                    label: format!("llc={}KB", llc / 1024),
                    cfgs: designs(faults, |k| scale.system_with_llc(k, llc)),
                }
            })
            .collect(),
        "ber" => ext_reliability::BERS
            .into_iter()
            .map(|ber| {
                let point_faults = FaultConfig::uniform(faults.seed, ber, ber / 8.0, ber / 16.0);
                Point {
                    label: ext_reliability::ber_label(ber),
                    cfgs: designs(point_faults, |k| scale.system(k)),
                }
            })
            .collect(),
        other => {
            let Some((_, prefix, values, set)) = AXES.iter().find(|axis| axis.0 == other) else {
                return Err(format!("unknown parameter '{other}'"));
            };
            values
                .iter()
                .map(|v| Point {
                    label: format!("{prefix}={v}"),
                    cfgs: designs(faults, |k| {
                        let mut c = scale.system(k);
                        set(&mut c, *v);
                        c
                    }),
                })
                .collect()
        }
    };
    Ok(out)
}

fn usage() -> ! {
    let axes: Vec<&str> = AXES.iter().map(|axis| axis.0).collect();
    eprintln!(
        "usage: sweep <llc|{}|ber> [--kernel K] [--scale S] [--jobs N] [--write-ber R] \
         [--read-disturb R] [--retention-ber R] [--fault-seed N]",
        axes.join("|")
    );
    std::process::exit(2);
}

/// Parses a probability flag value, naming the flag on failure.
fn parse_rate(flag: &str, v: Option<String>) -> f64 {
    let v = v.unwrap_or_default();
    match v.parse::<f64>() {
        Ok(r) if (0.0..=1.0).contains(&r) => r,
        _ => {
            eprintln!("{flag} expects a probability in [0, 1], got '{v}'");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Scaled;
    let mut kernel = Kernel::Sgemm;
    let mut param: Option<String> = None;
    let mut fault_seed = ext_reliability::FAULT_SEED;
    let mut write_ber = 0.0;
    let mut read_disturb = 0.0;
    let mut retention_ber = 0.0;
    let mut jobs = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                scale = Scale::parse(&it.next().unwrap_or_default()).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                })
            }
            "--kernel" => {
                kernel = Kernel::parse(&it.next().unwrap_or_default()).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                })
            }
            "--jobs" => {
                jobs = Some(parse_jobs(&it.next().unwrap_or_default()).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                }));
            }
            "--write-ber" => write_ber = parse_rate("--write-ber", it.next()),
            "--read-disturb" => read_disturb = parse_rate("--read-disturb", it.next()),
            "--retention-ber" => retention_ber = parse_rate("--retention-ber", it.next()),
            "--fault-seed" => {
                let v = it.next().unwrap_or_default();
                fault_seed = v.parse::<u64>().unwrap_or_else(|_| {
                    eprintln!("--fault-seed expects an unsigned integer, got '{v}'");
                    std::process::exit(2);
                });
            }
            "--help" | "-h" => usage(),
            p if param.is_none() => param = Some(p.to_string()),
            other => {
                eprintln!("unexpected argument '{other}'");
                std::process::exit(2);
            }
        }
    }
    let Some(param) = param else { usage() };
    let faults = FaultConfig::uniform(fault_seed, write_ber, read_disturb, retention_ber);
    let pts = points(&param, scale, faults).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });

    // Flatten every point × design cell and simulate them through
    // `run_cells`; results come back in input order, so printing stays
    // identical to the sequential sweep. A twice-panicking cell degrades
    // to an `Err` instead of killing the sweep.
    let n = scale.input();
    let all_cells: Vec<Cell> = pts
        .iter()
        .flat_map(|p| {
            p.cfgs
                .iter()
                .map(|(name, cfg)| Cell::new(format!("{}/{name}", p.label), kernel, n, cfg.clone()))
        })
        .collect();
    let outcomes = Harness::from_env(jobs).run_cells(&all_cells);
    for failure in outcomes.iter().filter_map(|o| o.as_ref().err()) {
        eprintln!("warning: {failure}");
    }
    let mut cell = outcomes.into_iter().map(|o| o.map(|r| r.cycles));

    println!(
        "sweep of {param} — {kernel} at {scale} scale, cycles normalized to each point's 1P1L\n"
    );
    print!("{:>16}", "");
    for (name, _) in &pts[0].cfgs {
        print!("  {name:>14}");
    }
    println!();
    for p in pts {
        print!("{:>16}", p.label);
        let mut base: Option<u64> = None;
        for (name, _) in &p.cfgs {
            let outcome = cell.next().expect("one result per cell");
            match outcome {
                Ok(cycles) if name == "1P1L" => {
                    base = Some(cycles);
                    print!("  {cycles:>14}");
                }
                Ok(cycles) => match base {
                    Some(b) if b > 0 => print!("  {:>14.3}", cycles as f64 / b as f64),
                    _ => print!("  {:>14}", "degraded"),
                },
                Err(_) => {
                    if name == "1P1L" {
                        base = None;
                    }
                    print!("  {:>14}", "degraded");
                }
            }
        }
        println!();
    }
}

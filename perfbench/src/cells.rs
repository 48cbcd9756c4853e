//! The benchmark's workloads: which (design × trace source) cells each one
//! simulates, at which sizes, and their timed set-up.

use mda_compiler::TraceSource;
use mda_sim::{HierarchyKind, SystemConfig};
use mda_workloads::{HtapWorkload, Kernel};
use std::hint::black_box;
use std::time::Instant;

/// Input sizes of one benchmark mode.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Matrix dimension of every kernel cell.
    pub n: u64,
    /// Fields (columns) of the HTAP table; it always has 2048 records.
    pub htap_fields: u64,
    /// Column scans of the HTAP mix.
    pub htap_scans: u64,
    /// Record transactions of the HTAP mix.
    pub htap_txns: u64,
}

impl Sizes {
    /// The sizes of the full (`smoke = false`) or smoke run.
    ///
    /// Every cell runs on the repository's tiny preset (4 KB / 8 KB / 16 KB,
    /// stride prefetcher of degree 4 on the 1-D designs). Its 64×64 input
    /// is the preset's own: each matrix of 8-byte words (32 KB) is twice
    /// the 16 KB LLC, the working-set ratio of the scaled and paper
    /// systems, so the cells stay memory-bound while a pass over a
    /// workload takes about a second. The HTAP table (2048 × 256 words,
    /// 4 MB) dwarfs every cache.
    pub fn new(smoke: bool) -> Sizes {
        if smoke {
            Sizes {
                n: 16,
                htap_fields: 64,
                htap_scans: 4,
                htap_txns: 128,
            }
        } else {
            Sizes {
                n: 64,
                htap_fields: 256,
                htap_scans: 32,
                htap_txns: 4096,
            }
        }
    }
}

/// One kind of trace source in a workload.
#[derive(Debug, Clone, Copy)]
enum Source {
    Kernel(Kernel),
    /// The transaction-heavy HTAP mix; its records come from the seed.
    Htap,
}

impl Source {
    fn build(self, sizes: &Sizes, seed: u64) -> Box<dyn TraceSource> {
        match self {
            Source::Kernel(k) => k.build(sizes.n),
            Source::Htap => Box::new(HtapWorkload::new(
                "htap-write",
                sizes.htap_fields,
                sizes.htap_scans,
                sizes.htap_txns,
                seed,
            )),
        }
    }
}

/// The designs and sources of a workload; its cells are their product.
#[derive(Debug, Clone)]
pub struct Plan {
    kinds: Vec<HierarchyKind>,
    sources: Vec<Source>,
}

/// Names of the workloads this binary simulates in-process.
pub const WORKLOADS: [&str; 4] = ["sim-1d", "sim-2d", "htap-write", "harness"];

/// The plan of `workload`, or `None` for an unknown name.
///
/// `harness` is the grid `figures` recomputes in fig11, fig14 and
/// ext_energy at `--scale tiny` (the prefetching baseline plus the three
/// plotted MDA designs, every kernel); the benchmark times its set-up and
/// traces it in-process, while `run.py` times the `figures` binary itself.
pub fn plan(workload: &str) -> Option<Plan> {
    use HierarchyKind::*;
    let kernels = |ks: &[Kernel]| ks.iter().map(|k| Source::Kernel(*k)).collect();
    Some(match workload {
        "sim-1d" => Plan {
            kinds: vec![Baseline1P1L, P2L1],
            sources: kernels(&[Kernel::Sgemm, Kernel::Strmm]),
        },
        "sim-2d" => Plan {
            kinds: vec![P1L2DifferentSet, P1L2SameSet, P2L2Sparse, P2L2Dense],
            sources: kernels(&[
                Kernel::Sgemm,
                Kernel::Ssyr2k,
                Kernel::Ssyrk,
                Kernel::Strmm,
                Kernel::Sobel,
            ]),
        },
        "htap-write" => Plan {
            kinds: vec![Baseline1P1L, P1L2DifferentSet, P2L2Sparse],
            sources: vec![Source::Htap],
        },
        "harness" => Plan {
            kinds: vec![Baseline1P1L, P1L2DifferentSet, P1L2SameSet, P2L2Sparse],
            sources: kernels(&Kernel::all()),
        },
        _ => return None,
    })
}

/// One simulation cell.
pub struct Cell {
    /// `design/source`, e.g. `1P1L/sgemm`.
    pub label: String,
    /// The trace source.
    pub source: Box<dyn TraceSource>,
    /// The simulated system.
    pub cfg: SystemConfig,
}

/// Seconds spent in each set-up stage of one build of every cell.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// `Kernel::build` / `HtapWorkload::new`.
    pub sources_s: f64,
    /// `SystemConfig` presets.
    pub configs_s: f64,
    /// `SystemConfig::build_hierarchy`.
    pub hierarchies_s: f64,
}

impl SetupTimes {
    /// All three stages.
    pub fn total_s(&self) -> f64 {
        self.sources_s + self.configs_s + self.hierarchies_s
    }
}

/// Builds every cell of `plan` once: the sources, the configurations and,
/// to time them, the hierarchies `simulate` will build for itself.
pub fn build(plan: &Plan, sizes: &Sizes, seed: u64) -> (Vec<Cell>, SetupTimes) {
    let pairs: Vec<(HierarchyKind, Source)> = plan
        .kinds
        .iter()
        .flat_map(|k| plan.sources.iter().map(move |s| (*k, *s)))
        .collect();
    let t0 = Instant::now();
    let sources: Vec<Box<dyn TraceSource>> =
        pairs.iter().map(|(_, s)| s.build(sizes, seed)).collect();
    let t1 = Instant::now();
    let configs: Vec<SystemConfig> = pairs.iter().map(|(k, _)| SystemConfig::tiny(*k)).collect();
    let t2 = Instant::now();
    let hierarchies: Vec<_> = configs.iter().map(SystemConfig::build_hierarchy).collect();
    let t3 = Instant::now();
    black_box(&hierarchies);
    drop(hierarchies);
    let times = SetupTimes {
        sources_s: (t1 - t0).as_secs_f64(),
        configs_s: (t2 - t1).as_secs_f64(),
        hierarchies_s: (t3 - t2).as_secs_f64(),
    };
    let cells = pairs
        .iter()
        .zip(sources)
        .zip(configs)
        .map(|(((kind, _), source), cfg)| Cell {
            label: format!("{}/{}", kind.name(), source.name()),
            source,
            cfg,
        })
        .collect();
    (cells, times)
}

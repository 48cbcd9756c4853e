//! Zero-dependency parallel execution for the harness.
//!
//! Every `(experiment × kernel × design × config-point)` cell of the
//! evaluation is an independent, deterministic simulation, so the whole
//! harness scales with cores. A [`Harness`] is the state of one run of the
//! harness: its worker count, the `MDA_PANIC_CELL` drill, the memo of
//! simulated cells and the cell counters. The experiments submit their
//! cells through its two methods:
//!
//! * [`Harness::par_map`] — run a closure over a slice on a scoped worker
//!   pool (plain `std::thread::scope`; no external crates) and reassemble
//!   the results **in input order**, so every table and CSV downstream is
//!   byte-identical to a sequential run. Each cell runs under
//!   `catch_unwind`: a panicking cell is retried once, and a cell that
//!   fails twice aborts the map (`par_map`'s infallible contract) or
//!   becomes a [`CellFailure`] ([`Harness::run_cells`]) — it never poisons
//!   the pool or takes the other cells down with it.
//! * [`Cell`]/[`Harness::run_cells`] — the labeled `(kernel, input,
//!   system)` unit the figure experiments and the `sweep` binary fan out.
//!   `run_cells` simulates each distinct cell once per harness (a fresh
//!   harness has an empty memo). Failures come back as labeled
//!   [`CellFailure`]s so experiments render them as degraded cells
//!   instead of crashing.
//!
//! The binaries build one harness with [`Harness::from_env`]; tests build
//! theirs with [`Harness::new`]. One job reproduces the sequential harness
//! exactly (no worker threads are spawned at all).

use crate::experiments::run_kernel;
use mda_sim::{FaultConfig, SimReport, SystemConfig};
use mda_workloads::Kernel;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Parses a worker count (`--jobs N`, `MDA_JOBS`): a positive integer,
/// else the message both CLIs print before exiting 2.
pub fn parse_jobs(v: &str) -> Result<usize, String> {
    match v.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("--jobs expects a positive integer, got '{v}'")),
    }
}

/// The state of one harness run: worker count, panic drill, memo of
/// simulated cells and cell counters.
#[derive(Debug)]
pub struct Harness {
    /// Worker threads per map (`jobs` in `BENCH_harness.json`); 0 or 1
    /// runs every map inline.
    pub jobs: usize,
    /// Cells whose label contains this string panic (`MDA_PANIC_CELL`).
    panic_cell: Option<String>,
    /// The `Ok` report of every distinct cell [`Harness::run_cells`] has
    /// simulated. At most a few hundred entries, so a linear scan suffices
    /// (and `SystemConfig` cannot be hashed: its fault rates are `f64`).
    /// A poisoned lock is recovered: every update is one `push`, so the
    /// list is valid at every step.
    memo: Mutex<Vec<(CellKey, SimReport)>>,
    /// Cells submitted since the last [`Harness::take_counts`].
    cells: AtomicU64,
    /// Cells actually simulated since the last [`Harness::take_counts`].
    simulated: AtomicU64,
}

impl Harness {
    /// A harness with `jobs` workers that drills every cell whose label
    /// contains `panic_cell`. Reads no environment.
    pub fn new(jobs: usize, panic_cell: Option<String>) -> Harness {
        Harness { jobs, panic_cell, memo: Mutex::default(), cells: 0.into(), simulated: 0.into() }
    }

    /// The harness of a binary run. The worker count is `jobs_flag` (the
    /// `--jobs N` CLI flag) if given, else a positive integer `MDA_JOBS`
    /// environment variable, else [`std::thread::available_parallelism`];
    /// a malformed or non-positive `MDA_JOBS` is ignored with a warning on
    /// stderr. A non-empty `MDA_PANIC_CELL` sets the drill (used by
    /// `scripts/verify.sh` to exercise the degraded-cell path end to end).
    pub fn from_env(jobs_flag: Option<usize>) -> Harness {
        let jobs = jobs_flag.unwrap_or_else(|| {
            if let Ok(v) = std::env::var("MDA_JOBS") {
                match parse_jobs(v.trim()) {
                    Ok(n) => return n,
                    Err(_) => eprintln!(
                        "warning: ignoring MDA_JOBS='{v}' (expected a positive integer); \
                         falling back to available parallelism"
                    ),
                }
            }
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        });
        let panic_cell = std::env::var("MDA_PANIC_CELL").ok().filter(|s| !s.is_empty());
        Harness::new(jobs, panic_cell)
    }

    /// The cells `(submitted, simulated)` since the previous call,
    /// resetting both counters (`figures --bench-timings` reports them).
    /// Every item of a map and every cell passed to [`Harness::run_cells`]
    /// is submitted; memo hits and duplicates are not simulated.
    pub fn take_counts(&self) -> (u64, u64) {
        (self.cells.swap(0, Ordering::SeqCst), self.simulated.swap(0, Ordering::SeqCst))
    }

    /// Maps `f` over `items` on [`Harness::jobs`] workers, returning
    /// results in input order. Every item counts as submitted and
    /// simulated.
    ///
    /// # Panics
    /// Panics if a cell panics twice in a row (once plus the automatic
    /// retry).
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.count(items.len(), items.len());
        pool_map(items, self.jobs, f)
            .into_iter()
            .map(|r| r.unwrap_or_else(|msg| panic!("parallel cell failed after retry: {msg}")))
            .collect()
    }

    /// Counts `submitted` cells, of which `simulated` run.
    fn count(&self, submitted: usize, simulated: usize) {
        self.cells.fetch_add(submitted as u64, Ordering::SeqCst);
        self.simulated.fetch_add(simulated as u64, Ordering::SeqCst);
    }
}

#[cfg(test)]
impl Harness {
    /// The harness that every value-checking unit test shares (one memo).
    pub(crate) fn shared() -> &'static Harness {
        static SHARED: std::sync::OnceLock<Harness> = std::sync::OnceLock::new();
        SHARED.get_or_init(|| Harness::new(2, None))
    }
}

/// Best-effort rendering of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The distinct values of `items` in first-seen order, and for each item
/// the index of its value among them.
fn dedup<T: PartialEq>(items: impl Iterator<Item = T>) -> (Vec<T>, Vec<usize>) {
    let mut distinct: Vec<T> = Vec::new();
    let slots = items
        .map(|item| match distinct.iter().position(|d| *d == item) {
            Some(i) => i,
            None => {
                distinct.push(item);
                distinct.len() - 1
            }
        })
        .collect();
    (distinct, slots)
}

/// Runs `f` under [`catch_unwind`], retrying once if it panics (transient
/// failures — e.g. resource exhaustion — recover). A second panic resolves
/// to `Err` with its message.
fn attempt<R>(f: impl Fn() -> R) -> Result<R, String> {
    match catch_unwind(AssertUnwindSafe(&f)) {
        Ok(r) => Ok(r),
        Err(payload) => {
            eprintln!(
                "warning: harness cell panicked ({}); retrying once",
                panic_message(payload.as_ref())
            );
            catch_unwind(AssertUnwindSafe(&f)).map_err(|payload| panic_message(payload.as_ref()))
        }
    }
}

/// The uncounted worker pool behind every map.
///
/// With `workers <= 1` (or fewer than two items) the map runs inline on
/// the calling thread — exactly the sequential harness. Otherwise a scoped
/// pool of `min(workers, items.len())` threads claims items through a
/// shared index counter and writes each result into its input slot.
///
/// Each invocation of `f` runs under [`attempt`]: a cell that panics twice
/// resolves to `Err` with the panic message while every other cell's
/// result is preserved.
fn pool_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.iter().map(|item| attempt(|| f(item))).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<R, String>>>> =
        items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let result = attempt(|| f(item));
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot poisoned")
                .expect("every claimed index writes its slot")
        })
        .collect()
}

/// One simulation cell of an experiment: a labeled kernel × input-size ×
/// system-configuration point.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Display label, e.g. `fig13/1P2L/sgemm` (diagnostics and timings).
    pub label: String,
    /// The kernel to run.
    pub kernel: Kernel,
    /// Input size (matrix dimension).
    pub n: u64,
    /// The system to run it on.
    pub config: SystemConfig,
}

impl Cell {
    /// Creates a cell.
    pub fn new(label: impl Into<String>, kernel: Kernel, n: u64, config: SystemConfig) -> Cell {
        Cell { label: label.into(), kernel, n, config }
    }
}

/// A cell that panicked twice and was rendered degraded instead of taking
/// the run down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// The failed cell's label.
    pub label: String,
    /// The panic message of the second (post-retry) failure.
    pub message: String,
}

impl std::fmt::Display for CellFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cell '{}' degraded: {}", self.label, self.message)
    }
}

/// The outcome of one harness cell: a report, or a labeled failure.
pub type CellResult = Result<SimReport, CellFailure>;

/// What a cell's report depends on: its kernel, input size and system.
/// Simulation is deterministic, so equal keys give equal reports.
#[derive(Debug, Clone, PartialEq)]
struct CellKey {
    kernel: Kernel,
    n: u64,
    config: SystemConfig,
}

impl CellKey {
    /// The canonical key of `cell`. A valid fault model with every rate at
    /// zero never draws a fault, so its seed, retry, spare and remap fields
    /// cannot reach the report: it becomes [`FaultConfig::none`]. An
    /// invalid one (e.g. a negative rate) keeps its fields and fails
    /// validation when simulated.
    fn of(cell: &Cell) -> CellKey {
        let mut config = cell.config.clone();
        let faults = &config.mem.faults;
        if !faults.enabled() && faults.validate().is_ok() {
            config.mem.faults = FaultConfig::none();
        }
        CellKey { kernel: cell.kernel, n: cell.n, config }
    }
}

impl Harness {
    /// Simulates every cell, returning per-cell outcomes in cell order. A
    /// cell that panics (twice, after the automatic retry) comes back as a
    /// labeled [`CellFailure`] with the other cells' reports intact.
    ///
    /// Each distinct cell is simulated once per harness:
    /// 1. every label first goes through the `MDA_PANIC_CELL` drill, so a
    ///    drilled cell fails whether or not its report is known;
    /// 2. the remaining cells are reduced to their distinct keys: kernel,
    ///    input size and system, with an all-zero fault model
    ///    canonicalized;
    /// 3. keys already in the harness memo take the memoized report;
    /// 4. only the other keys are simulated, on the worker pool;
    /// 5. their `Ok` reports join the memo (a degraded cell is never
    ///    memoized, so a later batch simulates it again).
    ///
    /// [`run_kernel`] itself stays un-memoized.
    pub fn run_cells(&self, cells: &[Cell]) -> Vec<CellResult> {
        let drilled: Vec<Result<(), String>> =
            cells.iter().map(|c| attempt(|| self.drill(&c.label))).collect();
        let (keys, slots) = dedup(
            cells.iter().zip(&drilled).filter(|(_, d)| d.is_ok()).map(|(c, _)| CellKey::of(c)),
        );
        let cached: Vec<Option<SimReport>> = {
            let memo = self.memo.lock().unwrap_or_else(|e| e.into_inner());
            keys.iter().map(|k| memo.iter().find(|(m, _)| m == k).map(|(_, r)| r.clone())).collect()
        };
        let misses: Vec<&CellKey> =
            keys.iter().zip(&cached).filter(|(_, r)| r.is_none()).map(|(k, _)| k).collect();
        self.count(cells.len(), misses.len());
        let mut fresh =
            pool_map(&misses, self.jobs, |k| run_kernel(k.kernel, k.n, &k.config)).into_iter();
        let reports: Vec<Result<SimReport, String>> = cached
            .into_iter()
            .map(|hit| hit.map_or_else(|| fresh.next().expect("one outcome per miss"), Ok))
            .collect();
        {
            let mut memo = self.memo.lock().unwrap_or_else(|e| e.into_inner());
            for (key, report) in keys.into_iter().zip(&reports) {
                if let Ok(r) = report {
                    if !memo.iter().any(|(m, _)| *m == key) {
                        memo.push((key, r.clone()));
                    }
                }
            }
        }
        let mut slots = slots.into_iter();
        cells
            .iter()
            .zip(drilled)
            .map(|(c, d)| {
                d.and_then(|()| {
                    let slot = slots.next().expect("one slot per undrilled cell");
                    reports[slot].clone()
                })
                .map_err(|message| CellFailure { label: c.label.clone(), message })
            })
            .collect()
    }

    /// The `MDA_PANIC_CELL` drill: panics if `label` contains the drilled
    /// string.
    fn drill(&self, label: &str) {
        if self.panic_cell.as_ref().is_some_and(|t| label.contains(t.as_str())) {
            panic!("deliberate MDA_PANIC_CELL failure in '{label}'");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mda_sim::HierarchyKind;

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..103).collect();
        for workers in [1, 2, 4, 7] {
            let out = pool_map(&items, workers, |x| x * 3);
            assert_eq!(out, items.iter().map(|x| Ok(x * 3)).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_workers_runs_inline() {
        let out = pool_map(&[1, 2, 3], 0, |x| x + 1);
        assert_eq!(out, vec![Ok(2), Ok(3), Ok(4)]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out = pool_map(&[] as &[u32], 8, |x| *x);
        assert!(out.is_empty());
    }

    /// Every kernel's cell reproduces the inline sequential result, in
    /// input order, on a 1-worker and a 4-worker pool, both directly and
    /// through [`Harness::run_cells`].
    #[test]
    fn run_cells_matches_sequential_run_kernel() {
        let cfg = SystemConfig::tiny(HierarchyKind::P2L2Sparse);
        let cells = Kernel::all().map(|k| Cell::new(k.name(), k, 24, cfg.clone()));
        let sequential: Vec<SimReport> =
            cells.iter().map(|c| run_kernel(c.kernel, c.n, &c.config)).collect();
        for (cell, report) in cells.iter().zip(&sequential) {
            assert_eq!(report.workload, cell.label, "results out of input order");
        }
        let expected: Vec<Option<SimReport>> = sequential.into_iter().map(Some).collect();
        for workers in [1, 4] {
            let pooled = pool_map(&cells, workers, |c| run_kernel(c.kernel, c.n, &c.config));
            let via_cells = Harness::new(workers, None).run_cells(&cells);
            assert_eq!(pooled.into_iter().map(Result::ok).collect::<Vec<_>>(), expected);
            assert_eq!(via_cells.into_iter().map(Result::ok).collect::<Vec<_>>(), expected);
        }
    }

    #[test]
    fn cell_counter_accumulates_and_resets() {
        let harness = Harness::new(2, None);
        harness.par_map(&[1, 2, 3], |x| *x);
        harness.par_map(&[1, 2], |x| *x);
        assert_eq!(harness.take_counts(), (5, 5));
        assert_eq!(harness.take_counts(), (0, 0));
    }

    #[test]
    fn persistent_panic_degrades_only_its_cell() {
        for workers in [1, 4] {
            let items = [1u32, 13, 3];
            let out = pool_map(&items, workers, |x| {
                if *x == 13 {
                    panic!("unlucky cell {x}");
                }
                x * 2
            });
            assert_eq!(out[0], Ok(2), "workers={workers}");
            assert_eq!(out[2], Ok(6), "workers={workers}");
            let err = out[1].as_ref().expect_err("cell 13 must fail");
            assert!(err.contains("unlucky cell 13"), "workers={workers}: {err}");
        }
    }

    #[test]
    fn transient_panic_is_retried_and_recovers() {
        let flaked = AtomicUsize::new(0);
        let out = pool_map(&[7u32], 1, |x| {
            if flaked.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("transient failure");
            }
            x + 1
        });
        assert_eq!(out, vec![Ok(8)]);
        assert_eq!(flaked.load(Ordering::SeqCst), 2, "exactly one retry");
    }

    #[test]
    #[should_panic(expected = "parallel cell failed after retry")]
    fn par_map_still_aborts_on_persistent_failure() {
        let _ = Harness::new(1, None).par_map(&[1u32], |_| -> u32 { panic!("always broken") });
    }

    #[test]
    fn degraded_cell_keeps_neighbors_intact() {
        // An invalid config panics inside MainMemory::new deterministically
        // (both the first attempt and the retry), exercising the real
        // degraded path without environment variables.
        let good = SystemConfig::tiny(HierarchyKind::Baseline1P1L);
        let mut bad = good.clone();
        bad.mem.channels = 0;
        let cells = [
            Cell::new("ok/left", Kernel::Sgemm, 16, good.clone()),
            Cell::new("broken/middle", Kernel::Sgemm, 16, bad),
            Cell::new("ok/right", Kernel::Sgemm, 16, good),
        ];
        let out = Harness::shared().run_cells(&cells);
        assert!(out[0].is_ok());
        assert!(out[2].is_ok());
        let fail = out[1].as_ref().expect_err("invalid config must degrade");
        assert_eq!(fail.label, "broken/middle");
        assert!(
            fail.message.contains("invalid SystemConfig")
                || fail.message.contains("invalid MemConfig"),
            "unexpected message: {}",
            fail.message
        );
        assert!(fail.to_string().contains("degraded"));
    }
}

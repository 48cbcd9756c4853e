//! Zero-dependency parallel execution for the harness.
//!
//! Every `(experiment × kernel × design × config-point)` cell of the
//! evaluation is an independent, deterministic simulation, so the whole
//! harness scales with cores. This module provides the fan-out layer the
//! experiments submit their cells through:
//!
//! * [`par_map`] — run a closure over a slice on a scoped worker pool
//!   (plain `std::thread::scope`; no external crates) and reassemble the
//!   results **in input order**, so every table and CSV downstream is
//!   byte-identical to a sequential run. Each cell runs under
//!   `catch_unwind`: a panicking cell is retried once, and a cell that
//!   fails twice aborts the map (`par_map`'s infallible contract) or
//!   becomes a [`CellFailure`] ([`run_cells`]) — it never poisons the pool
//!   or takes the other cells down with it.
//! * [`Cell`]/[`run_cells`] — the labeled `(kernel, input, system)` unit
//!   the figure experiments and the `sweep` binary fan out. `run_cells`
//!   simulates each distinct cell once per process: a process-wide memo
//!   holds the report of every cell it has simulated (see [`run_cells`]),
//!   and [`clear_memo`] empties it. Failures come back as labeled
//!   [`CellFailure`]s so experiments render them as degraded cells
//!   instead of crashing.
//! * [`jobs`]/[`set_jobs`] — worker-count resolution: an explicit
//!   [`set_jobs`] override (the `--jobs` CLI flag) beats the `MDA_JOBS`
//!   environment variable, which beats
//!   [`std::thread::available_parallelism`]. One job reproduces the
//!   sequential harness exactly (no worker threads are spawned at all).
//! * [`take_cell_count`]/[`take_simulated_count`] — process-wide counters
//!   of submitted and of actually simulated cells, read by the `figures`
//!   binary's `--bench-timings` mode.

use crate::experiments::run_kernel;
use mda_sim::{FaultConfig, SimReport, SystemConfig};
use mda_workloads::Kernel;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, Once, OnceLock};

/// Explicit worker-count override; 0 means "not set".
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Cells submitted since the last [`take_cell_count`].
static CELLS: AtomicU64 = AtomicU64::new(0);

/// Cells actually simulated since the last [`take_simulated_count`].
static SIMULATED: AtomicU64 = AtomicU64::new(0);

/// The `Ok` report of every distinct cell [`run_cells`] has simulated in
/// this process. At most a few hundred entries, so a linear scan suffices
/// (and `SystemConfig` cannot be hashed: its fault rates are `f64`).
static MEMO: Mutex<Vec<(CellKey, SimReport)>> = Mutex::new(Vec::new());

/// Sets the worker count explicitly (the `--jobs N` CLI flag). Passing 0
/// clears the override.
pub fn set_jobs(n: usize) {
    JOBS_OVERRIDE.store(n, Ordering::SeqCst);
}

/// The worker count used by [`par_map`]: the [`set_jobs`] override if set,
/// else a positive integer `MDA_JOBS` environment variable, else
/// [`std::thread::available_parallelism`]. A malformed or non-positive
/// `MDA_JOBS` is ignored with a one-time warning on stderr.
pub fn jobs() -> usize {
    let explicit = JOBS_OVERRIDE.load(Ordering::SeqCst);
    if explicit > 0 {
        return explicit;
    }
    if let Ok(v) = std::env::var("MDA_JOBS") {
        match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => return n,
            _ => {
                static WARNED: Once = Once::new();
                WARNED.call_once(|| {
                    eprintln!(
                        "warning: ignoring MDA_JOBS='{v}' (expected a positive integer); \
                         falling back to available parallelism"
                    );
                });
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Returns the number of cells submitted since the previous call,
/// resetting the counter. Every item of a map and every cell passed to
/// [`run_cells`] counts, whether or not it was simulated.
pub fn take_cell_count() -> u64 {
    CELLS.swap(0, Ordering::SeqCst)
}

/// Returns the number of cells actually simulated since the previous call,
/// resetting the counter: submitted cells minus memo hits and duplicates.
pub fn take_simulated_count() -> u64 {
    SIMULATED.swap(0, Ordering::SeqCst)
}

/// Empties the [`run_cells`] memo, so the next run of an experiment
/// simulates every one of its distinct cells again.
pub fn clear_memo() {
    memo().clear();
}

/// Locks the memo. A poisoned lock is recovered: every update is one
/// `push` or `clear`, so the list is valid at every step.
fn memo() -> MutexGuard<'static, Vec<(CellKey, SimReport)>> {
    MEMO.lock().unwrap_or_else(|e| e.into_inner())
}

/// Counts `submitted` cells, of which `simulated` run.
fn count(submitted: usize, simulated: usize) {
    CELLS.fetch_add(submitted as u64, Ordering::SeqCst);
    SIMULATED.fetch_add(simulated as u64, Ordering::SeqCst);
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

/// Maps `f` over `items` on [`jobs`] workers, returning results in input
/// order. Every item counts as submitted and simulated.
///
/// # Panics
/// Panics if a cell panics twice in a row (once plus the automatic retry).
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    count(items.len(), items.len());
    pool_map(items, jobs(), f)
        .into_iter()
        .map(|r| r.unwrap_or_else(|msg| panic!("parallel cell failed after retry: {msg}")))
        .collect()
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

/// Deliberate-failure hook for exercising the degraded-cell path end to
/// end (used by `scripts/verify.sh`): when the `MDA_PANIC_CELL`
/// environment variable is set, any cell whose label contains its value
/// panics. Read once per process so the harness stays deterministic.
fn deliberate_panic_check(label: &str) {
    static PANIC_CELL: OnceLock<Option<String>> = OnceLock::new();
    let target =
        PANIC_CELL.get_or_init(|| std::env::var("MDA_PANIC_CELL").ok().filter(|s| !s.is_empty()));
    if let Some(t) = target {
        if label.contains(t.as_str()) {
            panic!("deliberate MDA_PANIC_CELL failure in '{label}'");
        }
    }
}

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

/// Simulates every cell, returning per-cell outcomes in cell order. A cell
/// that panics (twice, after the automatic retry) comes back as a labeled
/// [`CellFailure`] with the other cells' reports intact.
///
/// Each distinct cell is simulated once per process:
/// 1. every label first goes through the `MDA_PANIC_CELL` drill, so a
///    drilled cell fails whether or not its report is known;
/// 2. the remaining cells are reduced to their distinct keys: kernel,
///    input size and system, with an all-zero fault model canonicalized;
/// 3. keys already in the process-wide memo take the memoized report;
/// 4. only the other keys are simulated, on the worker pool;
/// 5. their `Ok` reports join the memo (a degraded cell is never
///    memoized, so a later batch simulates it again).
///
/// [`run_kernel`] itself stays un-memoized.
pub fn run_cells(cells: &[Cell]) -> Vec<CellResult> {
    let drilled: Vec<Result<(), String>> =
        cells.iter().map(|c| attempt(|| deliberate_panic_check(&c.label))).collect();
    let (keys, slots) =
        dedup(cells.iter().zip(&drilled).filter(|(_, d)| d.is_ok()).map(|(c, _)| CellKey::of(c)));
    let cached: Vec<Option<SimReport>> = {
        let memo = memo();
        keys.iter().map(|k| memo.iter().find(|(m, _)| m == k).map(|(_, r)| r.clone())).collect()
    };
    let misses: Vec<&CellKey> =
        keys.iter().zip(&cached).filter(|(_, r)| r.is_none()).map(|(k, _)| k).collect();
    count(cells.len(), misses.len());
    let mut fresh = pool_map(&misses, jobs(), |k| run_kernel(k.kernel, k.n, &k.config)).into_iter();
    let reports: Vec<Result<SimReport, String>> = cached
        .into_iter()
        .map(|hit| hit.map_or_else(|| fresh.next().expect("one outcome per miss"), Ok))
        .collect();
    {
        let mut memo = memo();
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
    /// input order, on a 1-worker and a 4-worker pool and through
    /// [`run_cells`].
    #[test]
    fn run_cells_matches_sequential_run_kernel() {
        let cfg = SystemConfig::tiny(HierarchyKind::P2L2Sparse);
        let cells = Kernel::all().map(|k| Cell::new(k.name(), k, 24, cfg.clone()));
        let sequential: Vec<SimReport> =
            cells.iter().map(|c| run_kernel(c.kernel, c.n, &c.config)).collect();
        for (cell, report) in cells.iter().zip(&sequential) {
            assert_eq!(report.workload, cell.label, "results out of input order");
        }
        for workers in [1, 4] {
            let pooled = pool_map(&cells, workers, |c| run_kernel(c.kernel, c.n, &c.config));
            let pooled: Vec<SimReport> = pooled.into_iter().map(|r| r.expect("cell ran")).collect();
            assert_eq!(pooled, sequential, "{workers} workers diverged");
        }
        let cells_out: Vec<SimReport> =
            run_cells(&cells).into_iter().map(|r| r.expect("cell ran")).collect();
        assert_eq!(cells_out, sequential, "run_cells diverged");
    }

    #[test]
    fn cell_counter_accumulates_and_resets() {
        take_cell_count();
        par_map(&[1, 2, 3], |x| *x);
        par_map(&[1, 2], |x| *x);
        assert_eq!(take_cell_count(), 5);
        assert_eq!(take_cell_count(), 0);
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
        let _ = par_map(&[1u32], |_| -> u32 { panic!("always broken") });
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
        let out = run_cells(&cells);
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

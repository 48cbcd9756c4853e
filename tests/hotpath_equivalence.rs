//! Pins the full `SimReport` of every kernel × design cell against golden
//! values captured *before* the allocation-free hot-path refactor (PR 4:
//! scratch-buffer `CacheLevel` API, `LevelKind` static dispatch, SoA
//! `SetArray`, direct-mapped prefetcher). Any behavioral drift in the
//! rewrite — a changed hit count, a reordered writeback, one extra cycle —
//! fails this test with the first differing cell named.
//!
//! Regenerate the golden file (only when an *intentional* model change
//! lands) with:
//!
//! ```text
//! MDA_UPDATE_GOLDEN=1 cargo test --test hotpath_equivalence
//! ```

use mda_bench::experiments::run_kernel;
use mda_sim::{HierarchyKind, SystemConfig};
use mda_workloads::Kernel;
use std::fmt::Write as _;

/// Input size: large enough to evict, duplicate, and coalesce on the tiny
/// hierarchy, small enough for debug-mode CI.
const N: u64 = 48;

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/hotpath_simreports.txt")
}

/// One section per cell: a `=== design/kernel` header followed by the full
/// `Debug` rendering of its `SimReport` (every counter, every level).
fn render_all_cells() -> String {
    let mut out = String::new();
    for kind in HierarchyKind::all() {
        let cfg = SystemConfig::tiny(kind);
        for kernel in Kernel::all() {
            let report = run_kernel(kernel, N, &cfg);
            writeln!(out, "=== {}/{}", kind.name(), kernel.name()).unwrap();
            writeln!(out, "{report:#?}").unwrap();
        }
    }
    out
}

#[test]
fn simreports_match_pre_refactor_golden() {
    let got = render_all_cells();
    let path = golden_path();
    if std::env::var("MDA_UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, &got).expect("write golden");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {} ({e}); regenerate with MDA_UPDATE_GOLDEN=1", path.display())
    });
    if got == want {
        return;
    }
    // Report the first diverging cell, not a 60 KB string diff.
    let split = |s: &str| -> Vec<String> {
        s.split("=== ").filter(|c| !c.is_empty()).map(|c| format!("=== {c}")).collect()
    };
    let (got_cells, want_cells) = (split(&got), split(&want));
    assert_eq!(
        got_cells.len(),
        want_cells.len(),
        "cell count changed: got {}, golden {}",
        got_cells.len(),
        want_cells.len()
    );
    for (g, w) in got_cells.iter().zip(&want_cells) {
        if g != w {
            let header = w.lines().next().unwrap_or("?");
            let first_diff = g
                .lines()
                .zip(w.lines())
                .find(|(a, b)| a != b)
                .map(|(a, b)| format!("got:    {a}\ngolden: {b}"))
                .unwrap_or_else(|| "line counts differ".to_string());
            panic!("SimReport diverged from pre-refactor golden at {header}\n{first_diff}");
        }
    }
    unreachable!("whole-file mismatch but every cell matches");
}

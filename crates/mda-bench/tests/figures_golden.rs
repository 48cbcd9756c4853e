//! Pins the `figures` binary's whole output at tiny scale: the stdout of
//! `figures all --scale tiny --jobs 2 --csv DIR` followed by one FNV-1a
//! digest line per CSV file it writes, against a golden file. Any change
//! to a number, a label or a CSV fails this test with the first differing
//! line named.
//!
//! Regenerate the golden file (only when an *intentional* model or output
//! change lands) with:
//!
//! ```text
//! MDA_UPDATE_GOLDEN=1 cargo test -p mda-bench --test figures_golden
//! ```

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/figures_tiny.txt")
}

/// 64-bit FNV-1a of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The run's stdout, then `csv <name> <digest>` for every CSV in name
/// order.
fn render() -> String {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("figures_golden_csv");
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["all", "--scale", "tiny", "--jobs", "2", "--csv"])
        .arg(&dir)
        .output()
        .expect("run figures");
    assert!(out.status.success(), "{out:?}");
    let mut text = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let mut csvs: Vec<PathBuf> =
        std::fs::read_dir(&dir).expect("csv dir").map(|e| e.expect("dir entry").path()).collect();
    csvs.sort();
    assert!(!csvs.is_empty(), "no CSV written");
    for path in csvs {
        let name = path.file_name().expect("file name").to_string_lossy().into_owned();
        let bytes = std::fs::read(&path).expect("read csv");
        writeln!(text, "csv {name} {:016x}", fnv1a(&bytes)).unwrap();
    }
    std::fs::remove_dir_all(&dir).expect("remove csv dir");
    text
}

#[test]
fn tiny_figures_and_csvs_match_golden() {
    let got = render();
    let path = golden_path();
    if std::env::var("MDA_UPDATE_GOLDEN").is_ok() {
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
    let diff = got
        .lines()
        .zip(want.lines())
        .enumerate()
        .find(|(_, (a, b))| a != b)
        .map(|(i, (a, b))| format!("line {}:\ngot:    {a}\ngolden: {b}", i + 1))
        .unwrap_or_else(|| {
            format!(
                "line counts differ: got {}, golden {}",
                got.lines().count(),
                want.lines().count()
            )
        });
    panic!("figures output diverged from {}\n{diff}", path.display());
}

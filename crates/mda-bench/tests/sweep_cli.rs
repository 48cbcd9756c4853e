//! The `sweep` binary's command line: one row per axis value, and exit 2
//! on a bad `--jobs` value or an unknown parameter.

use std::process::{Command, Output};

fn sweep(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sweep")).args(args).output().expect("run sweep")
}

#[test]
fn window_sweep_prints_one_labelled_row_per_value() {
    let out = sweep(&["window", "--scale", "tiny", "--jobs", "2"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let labels: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .filter(|w| w.starts_with("window="))
        .collect();
    assert_eq!(
        labels,
        ["window=16", "window=32", "window=64", "window=96", "window=192"],
        "{stdout}"
    );
    assert!(!stdout.contains("degraded"), "{stdout}");
}

#[test]
fn zero_jobs_exits_2_naming_the_value() {
    let out = sweep(&["window", "--scale", "tiny", "--jobs", "0"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8(out.stderr).expect("utf-8");
    assert!(stderr.contains("--jobs expects a positive integer, got '0'"), "{stderr}");
}

#[test]
fn unknown_parameter_exits_2() {
    let out = sweep(&["nosuch", "--scale", "tiny"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8(out.stderr).expect("utf-8");
    assert!(stderr.contains("unknown parameter 'nosuch'"), "{stderr}");
}

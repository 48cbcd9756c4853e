//! The `trace_stats` binary's command line: `compare` is its only command.

use std::process::{Command, Output};

fn trace_stats(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trace_stats")).args(args).output().expect("run trace_stats")
}

#[test]
fn compare_prints_both_targets_and_both_reuse_curves() {
    let out = trace_stats(&["compare", "sobel", "16"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    for section in ["== conventional target ==", "== MDA target =="] {
        assert_eq!(stdout.matches(section).count(), 1, "{section}");
    }
    // Each target reports a reuse profile at both line granularities.
    for curve in ["row-line reuse", "oriented-line reuse"] {
        assert_eq!(stdout.matches(curve).count(), 2, "{curve}");
    }
    assert_eq!(stdout.matches("miss curve 1→8K lines").count(), 4);
}

#[test]
fn removed_and_malformed_commands_exit_2_with_usage() {
    for args in [
        &["dump", "sobel", "16", "mda", "out.trace"][..],
        &["analyze", "in.trace"],
        &["compare", "sobel"],
        &["compare", "nosuch", "16"],
        &[],
    ] {
        let out = trace_stats(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8(out.stderr).expect("utf-8");
        assert!(stderr.contains("usage: trace-stats compare <kernel> <n>"), "{args:?}: {stderr}");
    }
}

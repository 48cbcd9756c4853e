//! Command-line front end for the project lint.
//!
//! ```text
//! mda-lint [ROOT]
//! ```
//!
//! Lints `ROOT/crates/*/src/**/*.rs` (default `.`; the `dead-pub` rule
//! also reads `ROOT/{crates,src,tests,examples,perfbench/src}` for uses)
//! and prints one `file:line: [rule] message` per violation. Exits 1 if any violation is
//! found, 2 on usage or I/O errors. The rule catalog lives in
//! `mda_check::lint` and DESIGN.md.

use std::path::PathBuf;

use mda_check::lint::lint_workspace;

fn main() {
    let mut args = std::env::args().skip(1);
    let root = PathBuf::from(args.next().unwrap_or_else(|| ".".to_string()));
    if let Some(extra) = args.next() {
        eprintln!("mda-lint: unexpected argument `{extra}` (usage: mda-lint [ROOT])");
        std::process::exit(2);
    }
    let findings = match lint_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("mda-lint: failed to scan {}: {e}", root.display());
            std::process::exit(2);
        }
    };
    for finding in &findings {
        println!("{finding}");
    }
    if findings.is_empty() {
        println!("mda-lint: clean");
    } else {
        eprintln!("mda-lint: {} violation(s)", findings.len());
        std::process::exit(1);
    }
}

//! `mda-lint` — the repo's zero-dependency source lint.
//!
//! Rules (IDs as printed and as accepted by `allow`):
//!
//! * `hot-path-alloc` — files carrying a `// mda-lint: hot-path` marker
//!   must not use allocating constructs (`Vec::new`, `Box::new`,
//!   `format!`, `.collect(`, `.to_vec(`) outside `#[cfg(test)]`.
//! * `lib-unwrap` — library crates (everything except `mda-bench` and
//!   `src/bin/` entry points) must not use `.unwrap()`, `.expect(` or
//!   `panic!` outside `#[cfg(test)]`.
//! * `hash-iter` — report/CSV/table modules must not use `HashMap` /
//!   `HashSet` (their iteration order would make figure output
//!   nondeterministic).
//! * `wall-clock` — `Instant::now` / `SystemTime` are allowed only in
//!   `mda-bench` (simulation results must not depend on host time).
//! * `dead-pub` — a `pub fn` / `pub const fn` defined outside
//!   `#[cfg(test)]` must be named, as a whole word outside comments and
//!   strings, by some *other* `.rs` file under `crates/`, `src/`, `tests/`,
//!   `examples/` or `perfbench/src` (an item nothing else calls is dead,
//!   or private).
//! * `bad-allow` — an `allow` directive without a reason string, or for an
//!   unknown rule (suppressions must be auditable).
//!
//! A violation on line `N` is suppressed by
//! `// mda-lint: allow(<rule>): <reason>` on line `N` or line `N-1`.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use crate::lexer::{scrub, Scrubbed};

/// All rule IDs, in reporting order.
pub const RULES: [&str; 6] =
    ["hot-path-alloc", "lib-unwrap", "hash-iter", "wall-clock", "dead-pub", "bad-allow"];

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// File the violation is in (as given to the linter).
    pub file: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// Rule ID.
    pub rule: &'static str,
    /// What was matched.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file.display(), self.line, self.rule, self.message)
    }
}

/// A parsed `mda-lint: allow(rule): reason` directive.
struct Allow {
    line: usize,
    rule: String,
    has_reason: bool,
}

/// Directives extracted from a file's comments.
struct Directives {
    hot_path: bool,
    allows: Vec<Allow>,
}

fn parse_directives(scrubbed: &Scrubbed) -> Directives {
    let mut hot_path = false;
    let mut allows = Vec::new();
    for comment in &scrubbed.comments {
        let Some(rest) = comment.text.trim().strip_prefix("mda-lint:") else {
            continue;
        };
        let rest = rest.trim();
        if rest == "hot-path" {
            hot_path = true;
            continue;
        }
        if let Some(args) = rest.strip_prefix("allow(") {
            let Some(close) = args.find(')') else {
                continue;
            };
            let rule = args[..close].trim().to_string();
            let tail = args[close + 1..].trim();
            let has_reason = tail.strip_prefix(':').is_some_and(|r| !r.trim().is_empty());
            allows.push(Allow { line: comment.line, rule, has_reason });
        }
    }
    Directives { hot_path, allows }
}

/// Whether a reasoned `allow(rule)` sits on `line` or the line above it.
fn suppressed(allows: &[Allow], rule: &str, line: usize) -> bool {
    allows
        .iter()
        .any(|a| a.has_reason && a.rule == rule && (a.line == line || a.line + 1 == line))
}

/// How a file participates in each rule, derived from its workspace path.
#[derive(Debug, Clone, Copy)]
struct FileScope {
    hot_path_eligible: bool,
    lib_crate: bool,
    report_module: bool,
    bench_crate: bool,
}

fn classify(path: &Path) -> FileScope {
    let norm: String = path.to_string_lossy().replace('\\', "/");
    let bench_crate = norm.contains("/mda-bench/") || norm.starts_with("mda-bench/");
    let is_bin = norm.contains("/src/bin/");
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
    let report_module = ["report", "table", "chart", "csv"].iter().any(|m| stem.contains(m));
    FileScope {
        hot_path_eligible: true,
        lib_crate: !bench_crate && !is_bin,
        report_module,
        bench_crate,
    }
}

const ALLOC_PATTERNS: [&str; 5] =
    ["Vec::new", "Box::new", "format!", ".collect(", ".to_vec("];
const UNWRAP_PATTERNS: [&str; 3] = [".unwrap()", ".expect(", "panic!"];
const HASH_PATTERNS: [&str; 2] = ["HashMap", "HashSet"];
const CLOCK_PATTERNS: [&str; 2] = ["Instant::now", "SystemTime"];

/// Lints one file's source text. `path` is used for scoping and reporting.
pub fn lint_source(path: &Path, src: &str) -> Vec<Finding> {
    let scrubbed = scrub(src);
    let directives = parse_directives(&scrubbed);
    let scope = classify(path);
    let mut findings = Vec::new();

    // A pattern that starts with an identifier character must match at a
    // word boundary (`Vec::new` must not fire inside `InlineVec::new`).
    let matches_pattern = |text: &str, pat: &str| -> bool {
        let needs_boundary =
            pat.starts_with(|c: char| c.is_alphanumeric() || c == '_');
        let mut from = 0usize;
        while let Some(pos) = text[from..].find(pat) {
            let at = from + pos;
            if !needs_boundary
                || !text[..at].ends_with(|c: char| c.is_alphanumeric() || c == '_')
            {
                return true;
            }
            from = at + pat.len();
        }
        false
    };

    let mut check = |rule: &'static str, patterns: &[&str], skip_tests: bool| {
        for (idx, text) in scrubbed.lines.iter().enumerate() {
            let line = idx + 1;
            if skip_tests && scrubbed.is_test_line(line) {
                continue;
            }
            for pat in patterns {
                if matches_pattern(text, pat) && !suppressed(&directives.allows, rule, line) {
                    findings.push(Finding {
                        file: path.to_path_buf(),
                        line,
                        rule,
                        message: format!("`{pat}` is not allowed here"),
                    });
                }
            }
        }
    };

    if directives.hot_path && scope.hot_path_eligible {
        check("hot-path-alloc", &ALLOC_PATTERNS, true);
    }
    if scope.lib_crate {
        check("lib-unwrap", &UNWRAP_PATTERNS, true);
    }
    if scope.report_module {
        check("hash-iter", &HASH_PATTERNS, true);
    }
    if !scope.bench_crate {
        check("wall-clock", &CLOCK_PATTERNS, true);
    }

    // Malformed suppressions are themselves violations: an allow must name
    // a known rule and carry a reason.
    for allow in &directives.allows {
        if !RULES.contains(&allow.rule.as_str()) {
            findings.push(Finding {
                file: path.to_path_buf(),
                line: allow.line,
                rule: "bad-allow",
                message: format!("allow names unknown rule `{}`", allow.rule),
            });
        } else if !allow.has_reason {
            findings.push(Finding {
                file: path.to_path_buf(),
                line: allow.line,
                rule: "bad-allow",
                message: format!(
                    "allow({}) needs a reason: `// mda-lint: allow({}): <why>`",
                    allow.rule, allow.rule
                ),
            });
        }
    }

    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

/// The directories whose `.rs` files count as users of a public item.
const CONSUMER_DIRS: [&str; 5] = ["crates", "src", "tests", "examples", "perfbench/src"];

/// Whether `path` (relative to the workspace root) is a library source
/// file, `crates/*/src/**`: the files the rules lint.
fn is_crate_source(path: &Path) -> bool {
    let norm = path.to_string_lossy().replace('\\', "/");
    let mut parts = norm.split('/');
    parts.next() == Some("crates") && parts.next().is_some() && parts.next() == Some("src")
}

/// The name of the `pub fn` / `pub const fn` a scrubbed line starts with.
fn pub_fn_name(text: &str) -> Option<&str> {
    let rest = text.trim_start().strip_prefix("pub ")?.trim_start();
    let rest = rest.strip_prefix("const ").map_or(rest, str::trim_start);
    let rest = rest.strip_prefix("fn ")?.trim_start();
    let end = rest.find(|c: char| !(c.is_alphanumeric() || c == '_')).unwrap_or(rest.len());
    (end > 0).then(|| &rest[..end])
}

/// The `dead-pub` rule over a set of `(path, source)` files: each `pub fn`
/// defined outside `#[cfg(test)]` in a [`is_crate_source`] file must be
/// named by another file of the set.
fn dead_pub(files: &[(PathBuf, String)]) -> Vec<Finding> {
    let scrubbed: Vec<Scrubbed> = files.iter().map(|(_, src)| scrub(src)).collect();
    // Every identifier, with the indices of the files that name it.
    let mut users: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (idx, file) in scrubbed.iter().enumerate() {
        for text in &file.lines {
            for word in text.split(|c: char| !(c.is_alphanumeric() || c == '_')) {
                let list = users.entry(word).or_default();
                if list.last() != Some(&idx) {
                    list.push(idx);
                }
            }
        }
    }
    let mut findings = Vec::new();
    for (idx, ((path, _), file)) in files.iter().zip(&scrubbed).enumerate() {
        if !is_crate_source(path) {
            continue;
        }
        let allows = parse_directives(file).allows;
        for (i, text) in file.lines.iter().enumerate() {
            let line = i + 1;
            let Some(name) = pub_fn_name(text) else {
                continue;
            };
            let used_elsewhere = users.get(name).is_some_and(|f| f.iter().any(|&j| j != idx));
            if !used_elsewhere
                && !file.is_test_line(line)
                && !suppressed(&allows, "dead-pub", line)
            {
                findings.push(Finding {
                    file: path.clone(),
                    line,
                    rule: "dead-pub",
                    message: format!("`{name}` is public but no other file uses it"),
                });
            }
        }
    }
    findings
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every `crates/*/src/**/*.rs` under `root`; `dead-pub` also reads
/// the other consumer directories. Findings are sorted by file and line,
/// with paths relative to `root`.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut paths = Vec::new();
    for dir in CONSUMER_DIRS {
        let dir = root.join(dir);
        if dir.is_dir() {
            collect_rs(&dir, &mut paths)?;
        }
    }
    let mut files = Vec::with_capacity(paths.len());
    for path in paths {
        let src = std::fs::read_to_string(&path)?;
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        files.push((rel, src));
    }
    let mut findings = dead_pub(&files);
    for (rel, src) in &files {
        if is_crate_source(rel) {
            findings.extend(lint_source(rel, src));
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_path() -> PathBuf {
        PathBuf::from("crates/mda-cache/src/example.rs")
    }

    #[test]
    fn unwrap_in_lib_crate_is_flagged() {
        let findings = lint_source(&lib_path(), "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n");
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "lib-unwrap");
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn unwrap_in_cfg_test_is_ignored() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { None::<u8>.unwrap(); }\n}\n";
        assert!(lint_source(&lib_path(), src).is_empty());
    }

    #[test]
    fn unwrap_in_bench_or_bin_is_ignored() {
        let src = "fn main() { std::env::args().next().unwrap(); }\n";
        assert!(lint_source(&PathBuf::from("crates/mda-bench/src/lib.rs"), src).is_empty());
        assert!(lint_source(&PathBuf::from("crates/mda-check/src/bin/mda-lint.rs"), src)
            .is_empty());
    }

    #[test]
    fn hot_path_alloc_requires_marker() {
        let src = "fn f() -> Vec<u8> { Vec::new() }\n";
        assert!(lint_source(&lib_path(), src).is_empty(), "no marker, no rule");
        let marked = format!("// mda-lint: hot-path\n{src}");
        let findings = lint_source(&lib_path(), &marked);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "hot-path-alloc");
    }

    #[test]
    fn inline_vec_new_is_not_vec_new() {
        let src =
            "// mda-lint: hot-path\nfn f() -> InlineVec<u8, 4> { InlineVec::new() }\n";
        assert!(lint_source(&lib_path(), src).is_empty(), "word boundary respected");
    }

    #[test]
    fn allow_with_reason_suppresses_same_and_next_line() {
        let src = "// mda-lint: allow(lib-unwrap): contract documented under # Panics\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert!(lint_source(&lib_path(), src).is_empty());
        let inline = "fn f(x: Option<u8>) -> u8 { x.unwrap() } // mda-lint: allow(lib-unwrap): documented\n";
        assert!(lint_source(&lib_path(), inline).is_empty());
    }

    #[test]
    fn allow_without_reason_is_itself_flagged() {
        let src = "// mda-lint: allow(lib-unwrap)\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let findings = lint_source(&lib_path(), src);
        assert!(findings.iter().any(|f| f.rule == "bad-allow"));
        assert!(findings.iter().any(|f| f.rule == "lib-unwrap"), "reasonless allow is void");
    }

    #[test]
    fn allow_unknown_rule_is_flagged() {
        let src = "// mda-lint: allow(no-such-rule): whatever\n";
        let findings = lint_source(&lib_path(), src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "bad-allow");
    }

    #[test]
    fn hash_in_report_module_is_flagged() {
        let src = "use std::collections::HashMap;\n";
        let findings =
            lint_source(&PathBuf::from("crates/mda-sim/src/report.rs"), src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "hash-iter");
        assert!(lint_source(&lib_path(), src).is_empty(), "only report modules");
    }

    #[test]
    fn wall_clock_outside_bench_is_flagged() {
        let src = "fn f() { let _ = std::time::Instant::now(); }\n";
        let findings = lint_source(&lib_path(), src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "wall-clock");
        assert!(lint_source(&PathBuf::from("crates/mda-bench/src/scale.rs"), src).is_empty());
    }

    fn files(list: &[(&str, &str)]) -> Vec<(PathBuf, String)> {
        list.iter().map(|(p, s)| (PathBuf::from(p), s.to_string())).collect()
    }

    const DEF: &str = "crates/mda-mem/src/a.rs";

    #[test]
    fn unreferenced_pub_fn_is_flagged() {
        let findings = dead_pub(&files(&[(DEF, "/// Docs.\npub fn lonely() {}\n")]));
        assert_eq!(findings.len(), 1);
        assert_eq!((findings[0].rule, findings[0].line), ("dead-pub", 2));
        let konst = files(&[(DEF, "pub const fn lonely() -> u8 { 0 }\n")]);
        assert_eq!(dead_pub(&konst).len(), 1, "pub const fn is in scope");
    }

    #[test]
    fn a_reference_in_another_file_clears_dead_pub() {
        for user in ["crates/mda-sim/src/b.rs", "tests/t.rs", "examples/e.rs", "perfbench/src/m.rs"] {
            let set = files(&[(DEF, "pub fn used() {}\n"), (user, "fn f() { a::used(); }\n")]);
            assert!(dead_pub(&set).is_empty(), "{user} counts as a user");
        }
    }

    #[test]
    fn own_file_and_comment_references_do_not_count() {
        let own = files(&[(DEF, "pub fn f() {}\nfn g() { f(); }\n")]);
        assert_eq!(dead_pub(&own).len(), 1, "a use in the defining file is not enough");
        let comment = files(&[
            (DEF, "pub fn f() {}\n"),
            ("crates/mda-sim/src/b.rs", "// calls f\nconst S: &str = \"f\";\n"),
        ]);
        assert_eq!(dead_pub(&comment).len(), 1, "comments and strings are not uses");
    }

    #[test]
    fn cfg_test_definitions_and_non_crate_files_are_ignored() {
        let src = "#[cfg(test)]\npub fn helper() {}\n#[cfg(test)]\nmod t {\n    pub fn t() {}\n}\n";
        assert!(dead_pub(&files(&[(DEF, src)])).is_empty());
        assert!(dead_pub(&files(&[("tests/t.rs", "pub fn lonely() {}\n")])).is_empty());
    }

    #[test]
    fn allow_with_reason_suppresses_dead_pub() {
        let src = "// mda-lint: allow(dead-pub): kept for downstream users\npub fn f() {}\n";
        assert!(dead_pub(&files(&[(DEF, src)])).is_empty());
        let reasonless = "// mda-lint: allow(dead-pub)\npub fn f() {}\n";
        assert_eq!(dead_pub(&files(&[(DEF, reasonless)])).len(), 1);
        assert!(lint_source(Path::new(DEF), src).is_empty(), "dead-pub is a known rule");
    }

    #[test]
    fn patterns_in_strings_and_comments_do_not_fire() {
        let src = "// calling panic! here would be bad\nconst HELP: &str = \"never .unwrap() user input\";\n";
        assert!(lint_source(&lib_path(), src).is_empty());
    }
}

#!/usr/bin/env bash
# Tier-1 verification gate plus a parallel-harness smoke test.
#
# Usage: scripts/verify.sh
#
# Steps, in run order:
#   1. release build of the facade and every crate under crates/
#   2. the test suite of the facade and every crate under crates/ (unit,
#      integration, property and doc tests; the default workspace members)
#   3. clippy (warnings + perf lints) across the whole workspace
#   4. rustdoc across the whole workspace, with warnings as errors
#   5. rustfmt: the workspace must already be formatted (rustfmt.toml)
#   6. mda-lint: the workspace must be free of hot-path allocations,
#      library panics, nondeterministic report iteration, stray clocks and
#      `pub fn`s no other file uses (`dead-pub`)
#   7. mda-check: exhaustive dim-3 model check of the duplicate-word policy
#      plus the model-vs-real differential at dim 2 (the depth-3 default)
#   8. `figures all --scale tiny --jobs 2` smoke run, asserting the
#      parallel harness produces output byte-identical to `--jobs 1`
#   9. `--csv` must leave the text output byte-identical, and an unknown
#      experiment name must exit 2 before anything runs or is written
#  10. reliability smoke run: the seeded fault-injection sweep must be
#      byte-identical across worker counts
#  11. memo drill: experiments run in one process (later ones answered
#      from the memo of simulated cells) print and write exactly what
#      each run in its own process does
#  12. degraded-cell drill: a deliberately panicking cell (MDA_PANIC_CELL)
#      must come back as "degraded" while the rest of the figure survives
#      and the process exits zero
#  13. a malformed MDA_JOBS must produce a warning at start-up instead of
#      being silently ignored, even for an experiment that runs no cells
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: test suite =="
cargo test -q

echo "== lint: clippy (warnings + perf) on the whole workspace =="
cargo clippy -q --workspace --all-targets -- -D warnings -D clippy::perf

echo "== lint: rustdoc warnings are errors =="
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

echo "== lint: rustfmt (rustfmt.toml) =="
cargo fmt --all --check

echo "== lint: mda-lint project rules =="
cargo run -q --release -p mda-check --bin mda-lint

echo "== check: coherence model check (dim 3) + differential (dim 2) =="
# BFS all three cache variants exhaustively on a 3×3 tile, then replay the
# depth-3 sequence enumeration through the real caches. The seeded-mutation
# self-checks prove the harness would actually catch a policy break.
cargo run -q --release -p mda-check --bin mda-check -- --dim 3 --skip-diff
cargo run -q --release -p mda-check --bin mda-check -- --dim 2 --skip-bfs

echo "== smoke: figures all --scale tiny, --jobs 1 vs --jobs 2 =="
cargo build -q --release -p mda-bench
FIGURES=target/release/figures
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
"$FIGURES" all --scale tiny --jobs 1 --csv "$TMP/csv1" >"$TMP/out1.txt" 2>/dev/null
"$FIGURES" all --scale tiny --jobs 2 --csv "$TMP/csv2" >"$TMP/out2.txt" 2>/dev/null
cmp "$TMP/out1.txt" "$TMP/out2.txt"
diff -rq "$TMP/csv1" "$TMP/csv2"
echo "parallel output byte-identical"

echo "== smoke: --csv leaves the text output unchanged =="
"$FIGURES" fig13 ext_reliability --scale tiny --jobs 2 >"$TMP/plain.txt" 2>/dev/null
"$FIGURES" fig13 ext_reliability --scale tiny --jobs 2 --csv "$TMP/csv3" >"$TMP/with_csv.txt" 2>/dev/null
cmp "$TMP/plain.txt" "$TMP/with_csv.txt"
test -s "$TMP/csv3/fig13.csv"
test -s "$TMP/csv3/ext_reliability_corrected.csv"
echo "--csv changes no text output"

echo "== smoke: an unknown experiment name runs nothing =="
status=0
"$FIGURES" fig13 nosuch --scale tiny --csv "$TMP/bad_csv" >"$TMP/bad_out.txt" 2>/dev/null || status=$?
test "$status" -eq 2
test ! -s "$TMP/bad_out.txt"
test ! -e "$TMP/bad_csv"
echo "unknown name exits 2 with empty stdout and no CSV directory"

echo "== smoke: seeded fault injection, --jobs 2 vs --jobs 4 =="
SWEEP=target/release/sweep
"$SWEEP" ber --scale tiny --jobs 2 >"$TMP/ber2.txt" 2>/dev/null
"$SWEEP" ber --scale tiny --jobs 4 >"$TMP/ber4.txt" 2>/dev/null
grep -q "ber=1e-3" "$TMP/ber2.txt"
cmp "$TMP/ber2.txt" "$TMP/ber4.txt"
"$FIGURES" ext_reliability --scale tiny --jobs 2 >"$TMP/rel.txt" 2>/dev/null
grep -q "write retries" "$TMP/rel.txt"
echo "reliability sweep reproducible across worker counts"

echo "== smoke: memo hits render like fresh runs =="
# One process: ext_energy and ext_reliability's ber=0 cells repeat fig14's
# grid and come from the memo. Then each experiment in its own process.
MEMO_EXPS=(fig14 ext_energy ext_reliability ext_multicore)
FIGURES_ABS="$PWD/$FIGURES"
mkdir "$TMP/memo"
(cd "$TMP/memo" && "$FIGURES_ABS" "${MEMO_EXPS[@]}" --scale tiny --jobs 2 --csv A \
    --bench-timings >A.txt 2>/dev/null)
for e in "${MEMO_EXPS[@]}"; do
    "$FIGURES" "$e" --scale tiny --jobs 2 --csv "$TMP/memo/B" >>"$TMP/memo/B.txt" 2>/dev/null
done
cmp "$TMP/memo/A.txt" "$TMP/memo/B.txt"
diff -r "$TMP/memo/A" "$TMP/memo/B"
grep -q '"experiment": "ext_energy".*"cells": 28, "simulated": 0,' "$TMP/memo/BENCH_harness.json"
echo "memoized experiments byte-identical to separate runs; ext_energy simulated 0 cells"

echo "== smoke: deliberate panic degrades one cell, not the run =="
MDA_PANIC_CELL=sgemm "$FIGURES" fig13 --scale tiny --jobs 2 \
    >"$TMP/panic_out.txt" 2>"$TMP/panic_err.txt"
grep -q "degraded" "$TMP/panic_out.txt"
grep -q "retrying once" "$TMP/panic_err.txt"
# The other kernels' cells must survive with real values.
grep -vE "degraded|Average" "$TMP/panic_out.txt" | grep -qE "0\.[0-9]"
echo "panicking cell isolated; neighbors intact; exit code 0"

echo "== smoke: malformed MDA_JOBS warns instead of being ignored =="
# table1 runs no simulation cells: the warning comes when the harness is
# built at start-up, not when the worker pool is first used.
MDA_JOBS=banana "$FIGURES" table1 --scale tiny >/dev/null 2>"$TMP/jobs_err.txt"
grep -q "ignoring MDA_JOBS" "$TMP/jobs_err.txt"
echo "malformed MDA_JOBS produces a warning"

echo "verify: OK"

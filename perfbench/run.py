#!/usr/bin/env python3
"""The repository benchmark: MDACache simulator speed, end to end and layer
by layer. See perfbench/README.md.

    python3 perfbench/run.py --workload sim-1d [--seed N] [--seconds S] [--trace 0|1] [--smoke]
    python3 perfbench/run.py --write-reference

It builds the benchmark crate (perfbench/Cargo.toml, a workspace of its own)
and the release `figures` binary into $CARGO_TARGET_DIR (default
.bench_build), runs the workload for --seconds, checks every output against
perfbench/reference.json, prints a human-readable summary and a run record,
and prints one JSON result as the last line of stdout. With --trace 0 the
result holds the end-to-end metrics, with --trace 1 the per-layer ones.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
REFERENCE = BENCH / "reference.json"

SIM_WORKLOADS = ["sim-1d", "sim-2d", "htap-write"]
WORKLOADS = SIM_WORKLOADS + ["harness"]

# The harness child: two experiments that recompute the same default grid,
# the multi-core driver and the fault-injection path, with the --csv
# second dispatch, on two worker threads. (fig11 and fig12 recompute that
# grid too; they are left out to fit two passes into one run.)
HARNESS_EXPERIMENTS = ["fig14", "ext_energy", "ext_multicore", "ext_reliability"]
SMOKE_HARNESS_EXPERIMENTS = ["ext_multicore"]
HARNESS_JOBS = 2
# Seconds of in-process set-up timing before each harness pass.
SETUP_SLICE_S = 0.25

# Seeds whose htap-write digests --write-reference stores; other seeds are
# checked on their seed-independent op counts and pass-to-pass agreement.
REFERENCE_SEEDS = {"full": range(100), "smoke": range(10)}

# name -> unit. The order is the order of the printed summary.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_CACHE_FIELDS = {
    "ns_per_call": "ns/call",
    "accesses": "count",
    "hit_rate": "ratio",
    "demand_fills": "count",
    "writebacks_out": "count",
    "dup_writebacks": "count",
    "extra_tag_accesses": "count",
    "mshr_stalls": "count",
    "mshr_coalesced": "count",
}

PER_LAYER = {
    "mda_workloads.build_s": "s",
    "mda_compiler.generate_ns_per_op": "ns/op",
    "mda_compiler.mem_ops": "count",
    "mda_compiler.vector_frac": "ratio",
    "mda_compiler.compute_uops": "count",
    "mda_sim.build_hierarchy_s": "s",
    "mda_sim.core_ns_per_op": "ns/op",
    "mda_sim.hierarchy_ns_per_mem_op": "ns/op",
    "mda_sim.sim_cycles": "cycles",
    "mda_sim.trace_overhead_frac": "ratio",
    "mda_sim.split_gap_frac": "ratio",
    **{f"mda_cache.{lvl}.{f}": u for lvl in ("l1", "l2", "l3") for f, u in _CACHE_FIELDS.items()},
    "mda_cache.l1.prefetch_fills": "count",
    "mda_cache.prefetch.ns_per_observe": "ns/call",
    "mda_cache.replay_gap_frac": "ratio",
    "mda_mem.ns_per_request": "ns/call",
    "mda_mem.reads": "count",
    "mda_mem.writes": "count",
    "mda_mem.col_read_frac": "ratio",
    "mda_mem.buffer_hit_rate": "ratio",
    "mda_mem.activations": "count",
    "mda_mem.write_drain_stalls": "count",
    "mda_bench.cells": "count",
    "mda_bench.cells_per_s": "1/s",
    **{f"mda_bench.experiment_s.{e}": "s" for e in HARNESS_EXPERIMENTS},
}

# Source directories of each binary: a binary older than any `.rs` file
# under their `src/` is stale.
SIM_CRATES = [f"crates/{c}" for c in ("mda-mem", "mda-cache", "mda-compiler", "mda-sim", "mda-workloads")]
FIGURES_SOURCES = ["crates/mda-bench", *SIM_CRATES, "vendor/rand"]
PERFBENCH_SOURCES = ["perfbench", *SIM_CRATES, "vendor/rand"]
# What the run record's source digest covers.
DIGESTED = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench/Cargo.toml", "perfbench/Cargo.lock", "perfbench/src"]

_children = []


class BenchError(Exception):
    """A failure of the benchmark itself: no result is printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def _on_signal(signum, _frame):
    raise SystemExit(128 + signum)


def child_env():
    # Unset the harness's own knobs (MDA_JOBS, MDA_PANIC_CELL, ...) so
    # every run sees the same configuration.
    return {k: v for k, v in os.environ.items() if not k.startswith("MDA_")}


# glibc's heap trimming makes a set-up that frees and rebuilds megabytes
# of cache arrays either reuse warm heap or fault in fresh pages, at random
# per process; with trimming and the dynamic mmap threshold off, every
# set-up build reuses warm heap and perfbench's timings are steady.
PERFBENCH_ENV = {"MALLOC_TRIM_THRESHOLD_": str(1 << 30), "MALLOC_MMAP_THRESHOLD_": str(1 << 26)}


def spawn(cmd, env=None, **kw):
    """Starts a child that main() kills and reaps if it is still running
    when the benchmark exits."""
    proc = subprocess.Popen(cmd, env=env or child_env(), **kw)
    _children.append(proc)
    return proc


def stop_children():
    for proc in _children:
        if proc.returncode is None:
            proc.kill()
            proc.wait()


def run_measured(cmd, timeout, stdout_path, cwd=ROOT, env=None):
    """Runs `cmd` to completion, reaping it with wait4 for its own peak
    RSS. Returns (exit code, wall seconds, peak RSS in MB, stderr)."""
    with open(stdout_path, "wb") as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = spawn(cmd, env=env, cwd=cwd, stdout=out, stderr=err)
        while True:
            pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() - start > timeout:
                raise BenchError(f"{Path(cmd[0]).name} exceeded {timeout:.0f} s")
            time.sleep(0.002)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return proc.returncode, wall, rusage.ru_maxrss / 1024.0, stderr


def target_dir():
    t = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return t if t.is_absolute() else ROOT / t


def newest_source_mtime(dirs):
    return max(f.stat().st_mtime for d in dirs for f in (ROOT / d / "src").rglob("*.rs"))


def cargo_build(args, binary, sources):
    env = child_env()
    env["CARGO_TARGET_DIR"] = str(target_dir())
    cmd = ["cargo", "build", "--release", "--offline", *args]
    log("building: " + " ".join(cmd))
    proc = spawn(cmd, env=env, cwd=ROOT, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=880)
    except subprocess.TimeoutExpired:
        raise BenchError("cargo build exceeded 880 s")
    if code != 0:
        raise BenchError(f"cargo build failed ({' '.join(args)})")
    path = target_dir() / "release" / binary
    if not path.is_file():
        raise BenchError(f"build produced no {path}")
    if path.stat().st_mtime < newest_source_mtime(sources):
        raise BenchError(f"{path} is older than its sources; refusing a stale binary")
    return path


def build():
    if not (ROOT / "crates").is_dir() or not (ROOT / "Cargo.toml").is_file():
        raise BenchError(f"{ROOT} holds no MDACache sources (crates/, Cargo.toml) to build")
    perfbench = cargo_build(["--manifest-path", "perfbench/Cargo.toml"], "perfbench", PERFBENCH_SOURCES)
    # `-p mda-bench` names the package: a bare workspace build can leave
    # target/release/figures stale.
    figures = cargo_build(["-p", "mda-bench", "--bin", "figures"], "figures", FIGURES_SOURCES)
    return perfbench, figures


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def source_digest():
    h = hashlib.sha256()
    for rel in DIGESTED:
        p = ROOT / rel
        files = [p] if p.is_file() else sorted(f for f in p.rglob("*") if f.is_file())
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def command_output(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


class Run:
    """One benchmark invocation: its options, scratch space and results."""

    def __init__(self, args):
        self.args = args
        self.mode = "smoke" if args.smoke else "full"
        self.seconds = args.seconds if args.seconds is not None else (1 if args.smoke else 10)
        self.started = time.perf_counter()
        target_dir().mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="perfbench-", dir=target_dir()))
        self.attempted = 0
        self.failed = 0
        self.record = {}

    def remaining(self):
        """Seconds a child may take so the run still ends within 175 s."""
        return max(5.0, 165 - (time.perf_counter() - self.started))

    def perfbench(self, binary, mode, workload, seconds):
        cmd = [str(binary), mode, workload, "--seed", str(self.args.seed), "--seconds", str(seconds)]
        if self.args.smoke:
            cmd.append("--smoke")
        out = self.tmp / f"{mode}-{workload}.json"
        code, wall, rss, stderr = run_measured(cmd, self.remaining(), out, env={**child_env(), **PERFBENCH_ENV})
        if code != 0:
            log(stderr)
            raise BenchError(f"perfbench {mode} {workload} exited with {code}")
        lines = out.read_text().splitlines()
        if not lines:
            raise BenchError(f"perfbench {mode} {workload} printed nothing")
        return json.loads(lines[-1]), rss

    # -- correctness ---------------------------------------------------

    def check_cells(self, result, reference):
        """Counts every simulated cell against the stored digests."""
        ref = reference[self.mode][result["workload"]]
        expected = ref["cells"] if "cells" in ref else ref["seeds"].get(str(self.args.seed))
        for cell in result["cells"]:
            label = cell["label"]
            passes = sum(cell["digests"].values())
            self.attempted += passes + cell["panics"]
            self.failed += cell["panics"]
            if expected is not None:
                bad = sum(n for d, n in cell["digests"].items() if d != expected.get(label))
            else:
                bad = sum(n for d, n in cell["ops_digests"].items() if d != ref["ops"].get(label))
                bad = max(bad, passes - max(cell["digests"].values(), default=0))
            if bad:
                log(f"MISMATCH {label}: digests {cell['digests']} (expected {expected and expected.get(label)})")
            self.failed += bad
        if "split_mismatches" in result:
            self.attempted += sum(sum(c["digests"].values()) for c in result["cells"])
            self.failed += result["split_mismatches"]

    def check_files(self, outdir, reference):
        """Counts every harness output file against the stored digests."""
        expected = reference[self.mode]["harness"]["files"]
        got = harness_files(outdir)
        names = set(expected) | set(got)
        self.attempted += len(names)
        for name in sorted(names):
            if got.get(name) != expected.get(name):
                log(f"MISMATCH harness output {name}")
                self.failed += 1

    # -- workloads -----------------------------------------------------

    def harness_pass(self, perfbench, figures):
        """One run of the figures child beside a `perfbench sample` process;
        returns (wall, rss, outdir, timings, the sampler's result)."""
        outdir = Path(tempfile.mkdtemp(prefix="harness-", dir=self.tmp))
        exps = SMOKE_HARNESS_EXPERIMENTS if self.args.smoke else HARNESS_EXPERIMENTS
        cmd = [str(figures), *exps, "--scale", "tiny", "--jobs", str(HARNESS_JOBS), "--csv", "csv", "--bench-timings"]
        sampler = spawn([str(perfbench), "sample", "harness"], env={**child_env(), **PERFBENCH_ENV},
                        stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            code, wall, rss, stderr = run_measured(cmd, self.remaining(), outdir / "stdout.txt", cwd=outdir)
        finally:
            out, _ = sampler.communicate(b"", timeout=30)
        if sampler.returncode != 0:
            raise BenchError(f"perfbench sample exited with {sampler.returncode}")
        samples = json.loads(out)
        if not samples["loops"]:
            raise BenchError("perfbench sample took no samples")
        if code != 0:
            log(stderr)
            log(f"figures exited with {code}")
        timings = []
        bench = outdir / "BENCH_harness.json"
        if code == 0 and bench.is_file():
            timings = json.loads(bench.read_text())
            bench.unlink()
        return wall, rss, outdir, timings, samples

    def run_sim(self, perfbench, reference):
        mode = "trace" if self.args.trace else "run"
        result, rss = self.perfbench(perfbench, mode, self.args.workload, self.seconds)
        self.check_cells(result, reference)
        self.note(result, jobs=1)
        if self.args.trace:
            return {**result["layers"], **bench_layers([])}, None
        self.record.update(host_wall_s=result["host_wall_s"], host_setup_s=result["host_setup_s"], loop_s=result["loop_s"])
        return {"wall_s": result["wall_s"], "setup_s": result["setup_s"], "peak_rss_mb": rss}, result

    def run_harness(self, perfbench, figures, reference):
        if self.args.trace:
            wall, _, outdir, timings, _ = self.harness_pass(perfbench, figures)
            self.check_files(outdir, reference)
            result, _ = self.perfbench(perfbench, "trace", "harness", 0)
            self.check_cells(result, reference)
            self.note(result, jobs=HARNESS_JOBS, pass_walls=[wall])
            return {**result["layers"], **bench_layers([timings])}, None
        walls, rss, all_timings, setups, samples = [], [], [], [], []
        start = time.perf_counter()
        # Passes until the next one would overrun the measuring time, each
        # after a slice of in-process set-up timing (see perfbench setup).
        # The median reference loop time sampled during a pass scales it.
        while not walls or time.perf_counter() - start + statistics.mean(walls) <= self.seconds:
            setups.append(self.perfbench(perfbench, "setup", "harness", SETUP_SLICE_S)[0])
            wall, pass_rss, outdir, timings, pass_samples = self.harness_pass(perfbench, figures)
            self.check_files(outdir, reference)
            walls.append(wall)
            all_timings.append(timings)
            rss.append(pass_rss)
            samples.append(pass_samples)
        loops = [statistics.median(s["loops"]) for s in samples]
        scaled = [w * (s["nominal_loop_s"] / lp) ** s["loop_sensitivity"] for w, s, lp in zip(walls, samples, loops)]
        self.note(setups[0], jobs=HARNESS_JOBS, pass_walls=walls)
        self.record.update(
            setup_reps=sum(s["setup_reps"] for s in setups),
            host_wall_s=statistics.median(walls),
            host_setup_s=statistics.median(s["host_setup_s"] for s in setups),
            loop_s=statistics.median(loops),
            pass_loops=loops,
        )
        cells = sum(t["cells"] for t in all_timings[0]) if all_timings[0] else 0
        summary = {
            "wall_s": calm_median(scaled, loops),
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": statistics.median(rss),
        }
        return summary, {"cells_per_pass": cells}

    def note(self, result, jobs, pass_walls=None):
        self.record.update(
            workload=self.args.workload,
            seed=self.args.seed,
            trace=self.args.trace,
            mode=self.mode,
            seconds=self.seconds,
            jobs=jobs,
            sizes=result["sizes"],
            setup_reps=result["setup_reps"],
            pass_walls=pass_walls if pass_walls is not None else result.get("pass_walls", []),
        )
        if self.args.workload == "harness":
            exps = SMOKE_HARNESS_EXPERIMENTS if self.args.smoke else HARNESS_EXPERIMENTS
            self.record["harness_command"] = ["figures", *exps, "--scale", "tiny", "--jobs", str(HARNESS_JOBS), "--csv", "DIR", "--bench-timings"]


def calm_median(scaled, loops):
    """The median scaled time of the passes with the calmer (shorter) half
    of the reference loop times, rounded up (as perfbench's calib.rs)."""
    calm = [s for _, s in sorted(zip(loops, scaled))][: (len(scaled) + 1) // 2]
    return statistics.median(calm)


def harness_files(outdir):
    files = {"stdout.txt": sha256(outdir / "stdout.txt")}
    csv = outdir / "csv"
    if csv.is_dir():
        files.update({f"csv/{f.name}": sha256(f) for f in sorted(csv.iterdir())})
    return files


def bench_layers(timings_per_pass):
    """mda_bench metrics from the child's BENCH_harness.json (zero on the
    workloads that do not run the harness)."""
    out = {"mda_bench.cells": 0.0, "mda_bench.cells_per_s": 0.0}
    out.update({f"mda_bench.experiment_s.{e}": 0.0 for e in HARNESS_EXPERIMENTS})
    passes = [t for t in timings_per_pass if t]
    if not passes:
        return out
    out["mda_bench.cells"] = float(sum(t["cells"] for t in passes[0]))
    out["mda_bench.cells_per_s"] = statistics.median(
        sum(t["cells"] for t in p) / max(sum(t["seconds"] for t in p), 1e-9) for p in passes
    )
    for e in HARNESS_EXPERIMENTS:
        secs = [t["seconds"] for p in passes for t in p if t["experiment"] == e]
        if secs:
            out[f"mda_bench.experiment_s.{e}"] = statistics.median(secs)
    return out


def print_summary(run, metrics, extra):
    a = run.args
    print(f"perfbench {a.workload}: seed {a.seed}, trace {a.trace}, {run.mode} sizes {run.record.get('sizes')}")
    units = PER_LAYER if a.trace else END_TO_END
    for name, unit in units.items():
        print(f"  {name:<40} {metrics[name]:>16.6g} {unit}")
    if not a.trace:
        for name in ("host_wall_s", "host_setup_s", "loop_s"):
            print(f"  {name:<40} {run.record[name]:>16.6g} s")
        if a.workload in SIM_WORKLOADS:
            print(f"  {'mops_per_s':<40} {extra['mops_per_s']:>16.6g} Mop/s  ({extra['mem_ops']} trace mem ops per pass)")
        else:
            print(f"  {'cells per pass':<40} {extra['cells_per_pass']:>16} count")
        print(f"  {'passes':<40} {len(run.record['pass_walls']):>16} ({', '.join(f'{w:.3f}' for w in run.record['pass_walls'])} s)")
    frac = run.failed / run.attempted if run.attempted else 0.0
    print(f"  {'failed_frac':<40} {frac:>16.6g} ratio  ({run.failed} of {run.attempted} operations failed)")


def bench(args):
    reference = json.loads((Path(args.reference) if args.reference else REFERENCE).read_text())
    perfbench, figures = build()
    run = Run(args)
    try:
        if args.workload == "harness":
            metrics, extra = run.run_harness(perfbench, figures, reference)
        else:
            metrics, extra = run.run_sim(perfbench, reference)
    finally:
        shutil.rmtree(run.tmp, ignore_errors=True)
    run.record.update(
        commit=command_output(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else None,
        source_sha256=source_digest(),
        rustc=command_output(["rustc", "-V"]),
        nproc=os.cpu_count(),
    )
    print_summary(run, metrics, extra)
    print(json.dumps({"record": run.record}))
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)


def write_reference(args):
    """Regenerates perfbench/reference.json from the current sources."""
    perfbench, figures = build()
    reference = {
        "note": "Digests of the unmodified simulator's outputs: FNV-1a over a fixed SimReport field list "
        "per cell (perfbench/src/digest.rs) and SHA-256 of every harness output file.",
        "full": {},
        "smoke": {},
    }
    for mode in ("full", "smoke"):
        smoke = mode == "smoke"
        for workload in SIM_WORKLOADS + ["harness"]:
            seeds = REFERENCE_SEEDS[mode] if workload == "htap-write" else [1]
            entry = {}
            for seed in seeds:
                a = argparse.Namespace(**{**vars(args), "seed": seed, "smoke": smoke, "workload": workload, "trace": 0})
                run = Run(a)
                try:
                    result, _ = run.perfbench(perfbench, "run", workload, 0)
                    if workload == "harness":
                        _, _, outdir, _, _ = run.harness_pass(perfbench, figures)
                        entry["files"] = harness_files(outdir)
                finally:
                    shutil.rmtree(run.tmp, ignore_errors=True)
                cells = {c["label"]: only(c["digests"]) for c in result["cells"]}
                if workload == "htap-write":
                    entry.setdefault("seeds", {})[str(seed)] = cells
                    entry["ops"] = {c["label"]: only(c["ops_digests"]) for c in result["cells"]}
                else:
                    entry["cells"] = cells
            reference[mode][workload] = entry
            log(f"reference: {mode} {workload} done")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    log(f"wrote {REFERENCE}")


def only(digests):
    if len(digests) != 1:
        raise BenchError(f"a cell gave differing digests in one run: {digests}")
    return next(iter(digests))


def main():
    signal.signal(signal.SIGTERM, _on_signal)
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None, help="measuring time (default 10, smoke 1)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs that finish in seconds")
    p.add_argument("--reference", help="reference digests (default perfbench/reference.json)")
    p.add_argument("--write-reference", action="store_true", help="regenerate perfbench/reference.json")
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds is not None and args.seconds < 0:
        p.error("--seconds must be non-negative")
    try:
        if args.write_reference:
            write_reference(args)
        elif args.workload is None:
            p.error("--workload is required")
        else:
            bench(args)
    except BenchError as e:
        log(f"perfbench: error: {e}")
        return 1
    finally:
        stop_children()
    return 0


if __name__ == "__main__":
    sys.exit(main())

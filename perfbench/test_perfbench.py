#!/usr/bin/env python3
"""The benchmark's own tests, on its smoke mode (tiny inputs, seconds per run).

    python3 perfbench/test_perfbench.py
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as perfbench  # noqa: E402

ROOT = perfbench.ROOT


def smoke(workload, trace, *extra):
    cmd = [sys.executable, str(perfbench.BENCH / "run.py"), "--workload", workload, "--smoke", "--seed", "3",
           "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


class BenchmarkTests(unittest.TestCase):
    def test_benchmark_json_names_the_printed_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], perfbench.WORKLOADS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, perfbench.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, perfbench.PER_LAYER)

    def test_every_metric_is_reported_with_its_unit_and_nothing_fails(self):
        for workload in perfbench.WORKLOADS:
            for trace, units in ((0, perfbench.END_TO_END), (1, perfbench.PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    result = smoke(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, units)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertTrue(result["correct"])
                    if trace == 0:
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)

    def test_a_corrupted_reference_counts_as_a_failure(self):
        reference = json.loads(perfbench.REFERENCE.read_text())
        cells = reference["smoke"]["sim-1d"]["cells"]
        cells["1P1L/sgemm"] = "0" * 16
        files = reference["smoke"]["harness"]["files"]
        files["stdout.txt"] = "0" * 64
        perfbench.target_dir().mkdir(parents=True, exist_ok=True)
        with tempfile.NamedTemporaryFile("w", suffix=".json", dir=perfbench.target_dir()) as f:
            json.dump(reference, f)
            f.flush()
            for workload in ("sim-1d", "harness"):
                with self.subTest(workload=workload):
                    result = smoke(workload, 0, "--reference", f.name)
                    self.assertGreater(result["failed"], 0)
                    self.assertFalse(result["correct"])


if __name__ == "__main__":
    unittest.main()

"""Tests of run.py and the benchmark at small size.

Run from the repository root:

    python3 -m unittest discover -s benchmark -p 'test_*.py'

Every workload runs through run.py in both trace modes; the result line
must follow the contract BENCHMARK.json describes.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def small_run(workload, trace):
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "2", "--trace", str(trace), "--size", "small"]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)


class Statistics(unittest.TestCase):
    def test_quartiles_are_those_of_the_statistics_module(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(run.quartiles(values), (q1, med, q3))
        self.assertAlmostEqual(run.spread(values), (q3 - q1) / med)

    def test_win_share_counts_ties_for_neither_side(self):
        parent, change = [1.0, 2.0, 3.0, 4.0], [0.5, 2.0, 3.5, 3.0]
        self.assertEqual(run.win_share(parent, change, "lower"), 0.5)
        self.assertEqual(run.win_share(parent, change, "higher"), 0.25)


class Contract(unittest.TestCase):
    def test_benchmark_json_keys_and_limits(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        self.assertIn("setup_s", [m["name"] for m in SPEC["end_to_end"]])
        for m in SPEC["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        for w in SPEC["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)

    def test_every_workload_prints_its_table_in_both_modes(self):
        for workload in [w["name"] for w in SPEC["workloads"]]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    done = small_run(workload, trace)
                    self.assertEqual(done.returncode, 0, done.stdout[-2000:])
                    result = json.loads(done.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    table = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {n: m["unit"] for n, m in result["metrics"].items()}
                    self.assertEqual(got, table)
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_no_result_without_the_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "benchmark", Path(tmp) / "benchmark",
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
            env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
            cmd = [sys.executable, "benchmark/run.py", "--workload", "anonymize-mix",
                   "--seed", "1", "--seconds", "1", "--trace", "0"]
            done = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True,
                                  timeout=180)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()

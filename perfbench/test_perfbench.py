#!/usr/bin/env python3
"""Tests of the benchmark itself, at tiny scale (under a minute in all).

    python3 perfbench/test_perfbench.py

Run from the root of a GRETA checkout; the first run builds the benchmark
like perfbench/run.py does.
- Smoke: every workload, untraced and traced, prints every metric that
  BENCHMARK.json names, with its unit, and the result line is well formed
  and correct.
- Gate: a tampered reference row makes the run report failed > 0 and
  correct = false, and exit non-zero.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--seconds", "1", "--scale", "0.05"]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--trace", str(trace), *TINY, *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stdout


class SmokeTest(unittest.TestCase):
    def check(self, trace, group):
        for workload in [w["name"] for w in spec()["workloads"]]:
            with self.subTest(workload=workload, trace=trace):
                code, result, report = run(workload, trace)
                self.assertEqual(code, 0, report)
                self.assertEqual(set(result), {"correct", "attempted",
                                               "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                want = {m["name"]: m["unit"] for m in spec()[group]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want)
                for name, metric in result["metrics"].items():
                    self.assertIsInstance(metric["value"], (int, float), name)
                    # The report names every metric too, next to its unit.
                    self.assertRegex(report, rf"(?m)^{name} .* {want[name]} ")

    def test_untraced_prints_every_end_to_end_metric(self):
        self.check(0, "end_to_end")

    def test_traced_prints_every_per_layer_metric(self):
        self.check(1, "per_layer")


class GateTest(unittest.TestCase):
    def test_tampered_reference_row_fails_the_run(self):
        code, result, report = run("kleene_dense", 0, "--tamper", "1")
        self.assertNotEqual(code, 0, report)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertRegex(report, r"(?m)^failed_frac (?!0 )")


if __name__ == "__main__":
    unittest.main()

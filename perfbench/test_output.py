"""Self-test of the benchmark's output format.

Runs every workload at minimal length, untraced and traced, and checks
that the last line of standard output parses in the result format and
names exactly the metrics ``BENCHMARK.json`` lists.  Also checks that a
directory holding only the benchmark fails without printing a result.
Run from the root of a checkout (about two minutes)::

    python3 -m unittest perfbench/test_output.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path.cwd()
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, trace, cwd=ROOT):
    cmd = list(BENCH["command"]) + [
        "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
    ]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


class OutputFormat(unittest.TestCase):
    def check(self, workload, trace, section):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), RESULT_KEYS)
        self.assertIs(result["correct"], True)
        self.assertIsInstance(result["attempted"], int)
        self.assertIsInstance(result["failed"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        expected = {m["name"]: m["unit"] for m in BENCH[section]}
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, m in result["metrics"].items():
            self.assertEqual(set(m), {"value", "unit"}, name)
            self.assertEqual(m["unit"], expected[name], name)
            self.assertIsInstance(m["value"], float, name)
            self.assertTrue(math.isfinite(m["value"]), name)
        return result["metrics"]

    def test_workload_names(self):
        self.assertEqual(
            set(WORKLOADS), {"repeat-large", "single-use", "serve-2mib"}
        )

    def test_end_to_end(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                metrics = self.check(name, 0, "end_to_end")
                for metric, m in metrics.items():
                    self.assertGreater(m["value"], 0, metric)

    def test_per_layer(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                metrics = self.check(name, 1, "per_layer")
                self.assertEqual(metrics["serving.codec.tensor_bytes_copied"]["value"], 0)
                self.assertEqual(metrics["error_rate"]["value"], 0)

    def test_fails_without_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for path in BENCH["paths"]:
                shutil.copytree(ROOT / path, Path(tmp) / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = run(BENCH["workloads"][0]["name"], 0, cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

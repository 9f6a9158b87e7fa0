"""Self-tests of the benchmark. Run from the repository root:

    python3 -m unittest discover -s perfbench/tests

Each test runs perfbench/run.py at its smallest size (building into
$CARGO_TARGET_DIR, default .bench_build)."""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def run(*args, cwd=ROOT):
    cmd = [sys.executable, RUN, "--seed", "5", "--seconds", "1", "--scale", "smallest", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def result(proc):
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0 and lines, f"exit {proc.returncode}\n{proc.stderr[-3000:]}"
    return json.loads(lines[-1])


class SmallestSize(unittest.TestCase):
    def test_every_workload_emits_every_named_metric_with_its_unit(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for workload in [w["name"] for w in spec["workloads"]]:
            for trace, wanted in [(0, spec["end_to_end"]), (1, spec["per_layer"])]:
                with self.subTest(workload=workload, trace=trace):
                    r = result(run("--workload", workload, "--trace", str(trace)))
                    self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(r["correct"], r)
                    self.assertEqual(r["failed"], 0)
                    self.assertGreaterEqual(r["attempted"], 1)
                    self.assertEqual([m["name"] for m in wanted], list(r["metrics"]))
                    for m in wanted:
                        got = r["metrics"][m["name"]]
                        self.assertEqual(got["unit"], m["unit"], m["name"])
                        self.assertTrue(math.isfinite(got["value"]), m["name"])
                        if trace == 0:
                            self.assertGreater(got["value"], 0, m["name"])


class InjectedFaults(unittest.TestCase):
    def test_corrupted_cache_entry_raises_fail_share(self):
        r = result(run("--workload", "rerun", "--trace", "0", "--inject", "corrupt-cache"))
        self.assertFalse(r["correct"])
        self.assertGreaterEqual(r["failed"], 1)
        self.assertLess(r["failed"], r["attempted"])

    def test_architectural_mismatch_raises_fail_share(self):
        proc = run("--workload", "detailed", "--trace", "0", "--inject", "arch-mismatch")
        r = result(proc)
        self.assertFalse(r["correct"])
        self.assertGreaterEqual(r["failed"], 1)
        self.assertLess(r["failed"], r["attempted"])
        self.assertIn("architectural state", proc.stdout)


class BareDirectory(unittest.TestCase):
    def test_refuses_without_the_repository(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(
                os.path.join(ROOT, "perfbench"),
                os.path.join(d, "perfbench"),
                ignore=shutil.ignore_patterns("target", "__pycache__"),
            )
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "detailed", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=d, capture_output=True, text=True, timeout=180,
            )
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

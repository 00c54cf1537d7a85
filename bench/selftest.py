"""Self-test of the benchmark on tiny sizes.

Run from the repository root:

    python3 bench/selftest.py

It checks that every workload prints every metric BENCHMARK.json declares,
in both modes, that a deliberately wrong plan cost is counted as a failed
operation, and that the benchmark refuses to run outside a checkout.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest

import run

sys.path[:0] = [str(run.ROOT / "src"), str(run.ROOT / "tests")]

import workloads  # noqa: E402  (needs the paths above)
from demoplan.planner import Plan  # noqa: E402

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def run_tiny(workload: str, trace: int) -> tuple[int, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
            sizes=workloads.TINY,
        )
    return code, out.getvalue().splitlines()


class BenchmarkSelfTest(unittest.TestCase):
    def test_declared_metrics_match_the_runner(self):
        for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            declared = {m["name"]: m["unit"] for m in DECLARED[key]}
            self.assertEqual(declared, table, key)
        self.assertEqual({w["name"] for w in DECLARED["workloads"]}, set(run.WORKLOAD_NAMES))

    def test_every_metric_prints_on_every_workload(self):
        for workload in run.WORKLOAD_NAMES:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, lines = run_tiny(workload, trace)
                    self.assertEqual(code, 0)
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], lines)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    declared = {m["name"]: m["unit"] for m in DECLARED[key]}
                    printed = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(printed, declared)
                    for entry in result["metrics"].values():
                        self.assertTrue(math.isfinite(entry["value"]))
                    # The human-readable lines carry sample counts and the
                    # error rate, which the JSON line leaves out.
                    text = "\n".join(lines[:-1])
                    self.assertIn("error_rate", text)
                    self.assertIn(f"n={result['attempted']}", text)

    def test_wrong_plan_cost_counts_in_error_rate(self):
        real_plan = workloads.plan

        def overpriced(*args, **kwargs):
            found = real_plan(*args, **kwargs)
            first = dataclasses.replace(found.actions[0], cost=found.actions[0].cost + 1)
            return Plan((first,) + found.actions[1:], found.total_cost + 1)

        workloads.plan = overpriced
        try:
            code, lines = run_tiny("plan_scenes", 0)
        finally:
            workloads.plan = real_plan
        self.assertEqual(code, 0)
        result = json.loads(lines[-1])
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], result["attempted"])
        error_rate = next(line for line in lines if line.startswith("error_rate"))
        self.assertEqual(float(error_rate.split()[1]), 1.0)

    def test_refuses_to_run_without_the_package(self):
        run.OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
            shutil.copytree(run.ROOT / "bench", f"{tmp}/bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "plan_scenes",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("metrics", proc.stdout)


if __name__ == "__main__":
    unittest.main()

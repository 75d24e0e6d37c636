"""End-to-end run of every workload on a seed other than the sample seeds.

Shows that no workload depends on one seed: each run, on the workload's
full fixed input set with the fewest rounds, must check out correct and
report every metric as a finite non-zero number (untraced) or every
per-layer metric (traced). Builds the benchmark into $CARGO_TARGET_DIR
(default .bench_build) on first use; takes a few minutes.

    python3 -m unittest discover -s perfbench/tests
"""
import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(os.path.dirname(HERE), "run.py")
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402

SEED = 424242


def bench(workload, trace):
    p = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    if p.returncode != 0:
        raise AssertionError(f"{workload}: exit {p.returncode}\n{p.stderr[-2000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


class SecondSeed(unittest.TestCase):
    def test_every_workload_untraced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = bench(workload, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]), set(run.END_TO_END))
                for name, m in result["metrics"].items():
                    self.assertTrue(math.isfinite(m["value"]) and m["value"] > 0, name)
                    self.assertEqual(m["unit"], run.END_TO_END[name])

    def test_traced_run_matches_untraced_output(self):
        result = bench("mid_full", 1)
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), set(run.PER_LAYER))
        self.assertGreater(result["metrics"]["trace.coverage"]["value"], 0.9)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Tests of perfbench/run.py and of the benchmark report.

    python3 perfbench/tests/test_run.py          # fast checks only
    PERFBENCH_SLOW=1 python3 perfbench/tests/test_run.py

Fast check: BENCHMARK.json names the workloads and the end-to-end
metrics, each once. The slow checks build the benchmark and run every workload for
one second, untraced and traced, and check that the result line names
every metric of BENCHMARK.json with its unit.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class BenchmarkJsonTest(unittest.TestCase):
    def test_names_workloads_and_metrics(self):
        b = benchmark_json()
        self.assertEqual([w["name"] for w in b["workloads"]],
                         list(run.WORKLOADS))
        e2e = [m["name"] for m in b["end_to_end"]]
        self.assertEqual(e2e, ["setup_s", "direct_ms", "ditto_ms",
                               "approx_ms", "approx_psnr_db", "low_p50_ms",
                               "low_p90_ms", "high_p50_ms", "high_p90_ms",
                               "goodput_rps"])
        names = e2e + [m["name"] for m in b["per_layer"]]
        self.assertEqual(len(names), len(set(names)))


@unittest.skipUnless(os.environ.get("PERFBENCH_SLOW"),
                     "set PERFBENCH_SLOW=1 to run the workloads")
class ReportTest(unittest.TestCase):
    def result(self, workload, trace):
        out = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
             workload, "--seed", "3", "--seconds", "1", "--trace",
             str(trace)], cwd=ROOT, capture_output=True, text=True,
            check=True).stdout
        return json.loads(out.strip().splitlines()[-1])

    def test_every_metric_is_present_with_its_unit(self):
        b = benchmark_json()
        for workload in run.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                res = self.result(workload, trace)
                self.assertEqual(set(res), {"correct", "attempted",
                                            "failed", "metrics"})
                self.assertTrue(res["correct"], workload)
                self.assertGreaterEqual(res["attempted"], 1)
                want = {m["name"]: m["unit"] for m in b[key]}
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                self.assertEqual(got, want, (workload, trace))
                if trace == 0:
                    for name, v in res["metrics"].items():
                        self.assertGreater(v["value"], 0, (workload, name))


if __name__ == "__main__":
    unittest.main()

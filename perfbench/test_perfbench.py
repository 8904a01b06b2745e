#!/usr/bin/env python3
"""Tests of the benchmark itself, at smoke size (about two minutes):

    python3 perfbench/test_perfbench.py

- every workload prints every metric BENCHMARK.json names, with its unit,
  untraced and traced, and its output checks pass;
- the output checks catch a deliberately wrong output (--mutate: a booster
  with one perturbed leaf, or an altered reference plan);
- the traced runs write spans with parents, and request ids on serve-open;
- without the library sources next to it the benchmark fails cleanly.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
# fit-spill is not a bounded workload, but it stays runnable.
WORKLOADS = [w["name"] for w in BENCH["workloads"]] + ["fit-spill"]
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")

# The named end-to-end metrics each workload prints in its table.
NAMED = {
    "fit": ["setup_s", "peak_rss_mib", "fit_rows_per_s", "plan_auc"],
    "fit-spill": ["setup_s", "peak_rss_mib", "fit_rows_per_s",
                  "spill_file_mib"],
    "score-batch": ["setup_s", "peak_rss_mib", "batch_rows_per_s",
                    "row_p50_us", "row_p99_us"],
    "serve-open": ["setup_s", "peak_rss_mib", "serve_p50_us.lo",
                   "serve_p99_us.lo", "serve_p50_us.hi", "serve_p99_us.hi",
                   "serve_max_qps"],
}


def run(workload, trace, *extra, seed=3):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke", *extra],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc.returncode, result, lines


class BenchmarkTest(unittest.TestCase):

    def check_contract(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in declared])
        for m in declared:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_every_workload_prints_every_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, lines = run(workload, 0)
                self.assertEqual(code, 0, "\n".join(lines[-5:]))
                self.check_contract(result, BENCH["end_to_end"])
                for m in BENCH["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"],
                                       0, m["name"])
                table = {l.split()[1] for l in lines
                         if l.startswith(workload + " ")}
                for name in NAMED[workload]:
                    self.assertIn(name, table)
                self.assertTrue(any(l.startswith("provenance nproc=")
                                    for l in lines))

    def test_traced_runs_print_every_layer_and_write_spans(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, lines = run(workload, 1)
                self.assertEqual(code, 0, "\n".join(lines[-5:]))
                self.check_contract(result, BENCH["per_layer"])
                spans_path = BUILD / "spans" / (
                    "%s-seed3.json" % workload)
                spans = json.loads(spans_path.read_text())["spans"]
                self.assertTrue(spans)
                ids = {s["id"] for s in spans}
                for s in spans:
                    self.assertLessEqual(s["start_ns"], s["end_ns"])
                    self.assertTrue(s["parent"] == 0 or s["parent"] in ids)
                if workload == "serve-open":
                    self.assertTrue(any("request" in s for s in spans))
                if workload.startswith("fit"):
                    m = result["metrics"]
                    self.assertGreater(m["core.selected"]["value"], 0)
                    self.assertGreater(m["gbdt.miner_fit_s"]["value"], 0)
                spilled = result["metrics"]["dataframe.faults"]["value"]
                if workload.startswith("fit"):
                    self.assertGreater(spilled, 0)
                else:
                    self.assertEqual(spilled, 0)

    def test_checks_catch_a_wrong_output(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, lines = run(workload, 0, "--mutate")
                self.assertEqual(code, 1, "\n".join(lines[-5:]))
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertTrue(any(l.startswith("CHECK FAILED")
                                    for l in lines))

    def test_fails_without_library_sources(self):
        alone = BUILD / "alone"
        shutil.rmtree(alone, ignore_errors=True)
        alone.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", alone)
        for path in BENCH["paths"]:
            shutil.copytree(ROOT / path, alone / path)
        proc = subprocess.run(
            [*BENCH["command"], "--workload", WORKLOADS[0], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            cwd=alone, timeout=180,
            env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
        shutil.rmtree(alone, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(any(l.startswith("{")
                             for l in proc.stdout.splitlines()))


if __name__ == "__main__":
    unittest.main()

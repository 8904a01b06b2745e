#!/usr/bin/env python3
"""Runs workloads over several seeds and reports each end-to-end metric's
median and quartile spread, the way the benchmark's bounds are judged.

    python3 perfbench/spread.py --workloads fit,serve-open --seeds 1-10

For each workload and metric it prints the median and (Q3 - Q1) / median
over the runs, with Python's statistics.quantiles(values, n=4), next to
the metric's bound from BENCHMARK.json; a spread above a third of the
bound is flagged. --out writes every run's metrics as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = {}
    summary = {}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace",
                 "0"], stdout=subprocess.PIPE, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            provenance = next((l for l in lines
                               if l.startswith("provenance ")), "")
            if proc.returncode != 0 or not result["correct"]:
                print("%s seed %d: exit %d correct %s" %
                      (workload, seed, proc.returncode, result["correct"]))
                return 1
            runs[workload].append({"seed": seed, "provenance": provenance,
                                   **result})
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (k, v["value"])
                for k, v in result["metrics"].items())), flush=True)
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            med, rel = spread(values)
            flag = "" if rel <= bounds[name] / 3 else "  <-- above bound/3"
            if name != "setup_s":
                worst = max(worst, rel / bounds[name])
            summary.setdefault(workload, {})[name] = {
                "median": med, "spread": rel, "bound": bounds[name]}
            print("  %-12s %-14s median %-12.6g spread %.4f bound %.2f%s" %
                  (workload, name, med, rel, bounds[name], flag), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"summary": summary, "runs": runs}, indent=1) + "\n")
    print("worst spread / bound (setup_s excluded): %.3f" % worst)
    return 0


if __name__ == "__main__":
    sys.exit(main())

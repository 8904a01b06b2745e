#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload fit --seed 1 --seconds 30 --trace 0

prints the driver's output; its last line is one JSON object with the keys
correct, attempted, failed and metrics. --trace 1 is the separate traced
run: it prints the per-layer metrics and writes the spans it recorded to
<build>/spans/<workload>-seed<N>.json.

    python3 perfbench/run.py --workload all --seed 1 --seconds 30

runs every workload untraced and traced, prints the named end-to-end
metrics with units, the tracing overhead (traced minus untraced) and exits
non-zero when any output check failed.

The build goes to $CARGO_TARGET_DIR when set, else .bench_build, relative
to the repository root. The script exits non-zero, without printing a
result, when the library sources are not there to build.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["fit", "fit-spill", "score-batch", "serve-open"]
RUN_TIMEOUT_S = 175


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def run_env(build):
    env = dict(os.environ)
    tmp = build / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)  # compiler and spill scratch stay in the checkout
    return env


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    env = run_env(out)
    log_path = out / "perfbench-build.log"
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              env=env, cwd=ROOT).returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                print("perfbench: build failed (%s)" % " ".join(step),
                      file=sys.stderr)
                return None
    return out / "perfbench"


def run_one(binary, workload, seed, seconds, trace, extra=()):
    """Runs the driver once; returns (exit code, stdout text)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans = build_dir() / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans / ("%s-seed%s.json" % (workload, seed)))]
    cmd += list(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, env=run_env(build_dir()),
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return 124, ""
    return proc.returncode, proc.stdout


def last_json(text):
    lines = [l for l in text.splitlines() if l.startswith("{")]
    return json.loads(lines[-1]) if lines else None


def run_all(binary, seed, seconds, extra):
    ok = True
    overhead = []
    for workload in WORKLOADS:
        code0, out0 = run_one(binary, workload, seed, seconds, 0, extra)
        sys.stdout.write("".join(l + "\n" for l in out0.splitlines()
                                 if not l.startswith("{")))
        code1, out1 = run_one(binary, workload, seed, seconds, 1, extra)
        r0, r1 = last_json(out0), last_json(out1)
        if code0 or code1 or not r0 or not r1 or not r0["correct"] \
                or not r1["correct"]:
            ok = False
            print("%-22s CHECK FAILED (exit %d / %d)" % (workload, code0,
                                                        code1))
            sys.stdout.write("".join(l + "\n" for l in out1.splitlines()
                                     if l.startswith("CHECK")))
            continue
        for name in ("rows_per_s", "p50_us", "tail_us"):
            untraced = r0["metrics"][name]["value"]
            traced = r1["metrics"]["traced." + name]["value"]
            overhead.append((workload, name, traced - untraced,
                             r0["metrics"][name]["unit"]))
        print("%-22s attempted %d failed %d" % (workload, r0["attempted"],
                                                r0["failed"]))
    for workload, name, delta, unit in overhead:
        print("%-22s tracing_overhead.%s %.6g %s" % (workload, name, delta,
                                                     unit))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every size (for the benchmark's tests)")
    parser.add_argument("--mutate", action="store_true",
                        help="corrupt one reference output on purpose")
    args = parser.parse_args()
    binary = build()
    if binary is None:
        return 1
    extra = (["--smoke"] if args.smoke else []) + \
            (["--mutate"] if args.mutate else [])
    if args.workload == "all":
        return run_all(binary, args.seed, args.seconds, extra)
    code, out = run_one(binary, args.workload, args.seed, args.seconds,
                        args.trace, extra)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())

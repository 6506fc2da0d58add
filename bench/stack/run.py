#!/usr/bin/env python3
"""Build and run one workload of the stack benchmark; print one JSON result.

Run from the root of the repository:

    python3 bench/stack/run.py --workload steady --seed 1 --seconds 15 --trace 0

The benchmark is built from source with dune (release profile, build
directory .bench_build). The executable's "name value unit" lines are
passed through, and the last line printed is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics BENCHMARK.json lists, or with --trace 1
its per-layer metrics (the spans are then written under
.bench_build/traces/). Exits non-zero without a result when the build
fails, the run fails, or the metric names disagree with BENCHMARK.json;
exits 1 after the result when an audited output was wrong.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "bench", "stack", "main.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile("dune-project"):
        fail("no dune-project here: run from the root of the repository")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./bench/stack/main.exe"]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if proc.returncode != 0:
        fail(f"build failed with exit code {proc.returncode}")


def expected_names(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    cmd = [EXE, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}"]
    if args.trace:
        traces = os.path.join(BUILD_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        path = os.path.join(traces, f"{args.workload}-{args.seed}.tsv")
        cmd.append(f"--trace={path}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"no result within {RUN_TIMEOUT_S} s")
    if proc.returncode not in (0, 1):
        sys.stdout.write(proc.stdout)
        fail(f"benchmark exited with code {proc.returncode}")

    metrics, counts = {}, {}
    for line in proc.stdout.splitlines():
        print(line)
        fields = line.split()
        if len(fields) == 3 and fields[0] == "#":
            counts[fields[1]] = int(fields[2])
        elif len(fields) == 3:
            metrics[fields[0]] = {"value": float(fields[1]), "unit": fields[2]}
    want = expected_names(args.trace)
    if sorted(metrics) != sorted(want):
        fail(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(want)}")
    if "attempted" not in counts or "failed" not in counts:
        fail("no audit counts in the output")
    result = {
        "correct": proc.returncode == 0 and counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: metrics[name] for name in want},
    }
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()

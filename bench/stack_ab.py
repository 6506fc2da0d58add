#!/usr/bin/env python3
"""Alternating A/B of the stack benchmark: an earlier revision against the working tree.

Run from the root of the repository:

    python3 bench/stack_ab.py --parent REV --pairs 10 --seed 1 --workloads "churn storm"

or `make stack-ab PARENT=REV PAIRS=10 SEED=1 WORKLOADS="churn storm"`.

Exports `git archive REV` to .bench_build/ab/parent (kept, with its
build, while REV stays the same commit). Then, for each workload, runs
bench/stack/run.py for BENCHMARK.json's run_seconds PAIRS times in
that export and PAIRS times in the working tree, one pair at a time on
the same seed, alternating which side goes first. Every run's result
line is appended to .bench_build/ab/<time>.jsonl.

The summary gives, per workload and end-to-end metric, each side's
median and quartiles, each side's quartile spread (q3 - q1) / median,
the pairs the change won, and a verdict against the metric's bound in
BENCHMARK.json:

  WORSE       the change's median is worse than the parent's by more
              than the bound
  UNRESOLVED  a side's quartile spread exceeds the bound
  GAIN        the change won at least 9 pairs in 10 and its median is
              better than the parent's by more than the parent's
              quartile distance (q3 - q1)

Exits 1 when a run is not "correct": true, or when l1_miss_pct,
l2_miss_pct, fib_ratio or attempted differ between the two sides of a
pair: these are deterministic per seed. Timing verdicts are printed,
never gated.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

AB_DIR = os.path.join(".bench_build", "ab")
PARENT_DIR = os.path.join(AB_DIR, "parent")
SAME_PER_SEED = ("l1_miss_pct", "l2_miss_pct", "fib_ratio")


def git(*args):
    return subprocess.run(["git", *args], check=True, stdout=subprocess.PIPE,
                          text=True).stdout.strip()


def export(rev):
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    stamp = os.path.join(PARENT_DIR, ".ab-rev")
    if os.path.isfile(stamp) and open(stamp).read().strip() == sha:
        return sha
    shutil.rmtree(PARENT_DIR, ignore_errors=True)
    os.makedirs(PARENT_DIR)
    archive = subprocess.Popen(["git", "archive", sha], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", PARENT_DIR], stdin=archive.stdout,
                   check=True)
    if archive.wait() != 0:
        sys.exit(f"stack_ab: git archive {sha} failed")
    with open(stamp, "w") as f:
        f.write(sha + "\n")
    return sha


def run(side, workload, seed, seconds, log):
    cwd = PARENT_DIR if side == "parent" else "."
    cmd = [sys.executable, "bench/stack/run.py", f"--workload={workload}",
           f"--seed={seed}", f"--seconds={seconds}"]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    record = {"side": side, "workload": workload, "seed": seed,
              "exit": proc.returncode, "result": result}
    log.write(json.dumps(record) + "\n")
    log.flush()
    ok = result is not None and result.get("correct") is True
    print(f"stack_ab: {workload} seed {seed} {side}: "
          + ("correct" if ok else f"NOT CORRECT (exit {proc.returncode})"),
          file=sys.stderr, flush=True)
    return result if ok else None


def quartiles(vals):
    med = statistics.median(vals)
    if len(vals) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return med, q1, q3


def summarise(workload, pairs, spec):
    print(f"\n{workload}: {len(pairs)} pairs")
    print(f"  {'metric':14} {'parent median [q1-q3]':>30} {'change median [q1-q3]':>30}"
          f" {'spread p/c':>11} {'won':>6}  verdict")
    for m in spec["end_to_end"]:
        name, bound, higher = m["name"], m["bound"], m["better"] == "higher"
        p = [pr["parent"]["metrics"][name]["value"] for pr in pairs]
        c = [pr["change"]["metrics"][name]["value"] for pr in pairs]
        pm, pq1, pq3 = quartiles(p)
        cm, cq1, cq3 = quartiles(c)
        won = sum(1 for a, b in zip(p, c) if (b > a if higher else b < a))
        spread_p = (pq3 - pq1) / abs(pm) if pm else math.inf
        spread_c = (cq3 - cq1) / abs(cm) if cm else math.inf
        gain = (cm - pm) if higher else (pm - cm)
        worse = -gain / abs(pm) > bound if pm else gain < 0
        verdicts = []
        if worse:
            verdicts.append("WORSE")
        if spread_p > bound or spread_c > bound:
            verdicts.append("UNRESOLVED")
        if won >= math.ceil(0.9 * len(pairs)) and gain > pq3 - pq1:
            verdicts.append("GAIN")
        print(f"  {name:14} {pm:10.4g} [{pq1:8.4g}-{pq3:8.4g}]"
              f" {cm:10.4g} [{cq1:8.4g}-{cq3:8.4g}]"
              f" {spread_p:5.2f}/{spread_c:<5.2f} {won:>2}/{len(pairs):<3}"
              f"  {' '.join(verdicts) or 'ok'}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="revision to compare against")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads", default="",
                    help="space-separated; default: every workload of BENCHMARK.json")
    args = ap.parse_args()
    if not os.path.isfile("BENCHMARK.json"):
        sys.exit("stack_ab: no BENCHMARK.json here: run from the root of the repository")
    if args.pairs < 1:
        sys.exit("stack_ab: --pairs must be at least 1")
    spec = json.load(open("BENCHMARK.json"))
    workloads = args.workloads.split() or [w["name"] for w in spec["workloads"]]
    sha = export(args.parent)
    os.makedirs(AB_DIR, exist_ok=True)
    log_path = os.path.join(AB_DIR, time.strftime("%Y%m%dT%H%M%S") + ".jsonl")
    print(f"stack_ab: parent {sha}, {args.pairs} pairs on seed {args.seed}, "
          f"results in {log_path}", file=sys.stderr)
    problems = []
    with open(log_path, "a") as log:
        for w in workloads:
            pairs = []
            for k in range(args.pairs):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                res = {side: run(side, w, args.seed, spec["run_seconds"], log)
                       for side in order}
                if None in res.values():
                    problems.append(f"{w} pair {k + 1}: a run is not correct")
                    continue
                for name in SAME_PER_SEED:
                    a = res["parent"]["metrics"][name]["value"]
                    b = res["change"]["metrics"][name]["value"]
                    if a != b:
                        problems.append(f"{w} pair {k + 1}: {name} {a} vs {b}")
                if res["parent"]["attempted"] != res["change"]["attempted"]:
                    problems.append(f"{w} pair {k + 1}: attempted "
                                    f"{res['parent']['attempted']} vs "
                                    f"{res['change']['attempted']}")
                pairs.append(res)
            if pairs:
                summarise(w, pairs, spec)
    for p in problems:
        print(f"stack_ab: {p}", file=sys.stderr)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()

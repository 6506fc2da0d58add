#!/usr/bin/env bash
# Run every workload of the stack benchmark N times and summarise.
#
#   bench/stack/repeat.sh [N [FIRST_SEED [WORKLOAD...]]]
#
# Run from the repository root. Runs N (default 5) untraced runs of
# each workload (default: all of BENCHMARK.json's), with seeds
# FIRST_SEED (default 1) .. FIRST_SEED+N-1 and BENCHMARK.json's
# run_seconds, then prints each end-to-end metric's median and
# quartiles and flags SPREAD when the quartile spread, (q3 - q1) /
# median, exceeds the metric's bound. A timing that will not repeat
# within its bound means the workload should measure more work, not
# that the bound should widen.
#
# The summary is also written to .bench_build/repeat/summary.json. Set
# REPEAT_BASELINE to an earlier summary to flag DRIFT when a median
# moved by more than the metric's bound.
set -euo pipefail

n=${1:-5}
first=${2:-1}
shift $(($# < 2 ? $# : 2))
out=.bench_build/repeat
mkdir -p "$out"

if [ $# -gt 0 ]; then
  workloads=("$@")
else
  read -r -a workloads < <(python3 -c \
    'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
fi
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

for w in "${workloads[@]}"; do
  for ((s = first; s < first + n; s++)); do
    echo "repeat: $w seed $s" >&2
    python3 bench/stack/run.py --workload "$w" --seed "$s" --seconds "$seconds" \
      --trace 0 | tail -n 1 > "$out/$w-$s.json"
  done
done

python3 - "$out" "$n" "$first" "${workloads[@]}" <<'EOF'
import json, os, statistics, sys

out, n, first, workloads = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4:]
spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
base_path = os.environ.get("REPEAT_BASELINE")
base = json.load(open(base_path)) if base_path else {}
summary = {}
print(f"{'workload':8} {'metric':22} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
for w in workloads:
    runs = [json.load(open(f"{out}/{w}-{s}.json")) for s in range(first, first + n)]
    bad = [r for r in runs if not r["correct"]]
    if bad:
        print(f"{w}: {len(bad)} of {n} runs reported wrong outputs")
    summary[w] = {}
    for name, bound in bounds.items():
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if n > 1 else (med, med, med)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        flag = "  SPREAD" if spread > bound else ""
        if w in base and name in base[w]:
            old = base[w][name]["median"]
            drift = abs(med - old) / abs(old) if old else float("inf")
            if drift > bound:
                flag += f"  DRIFT {drift:.3f} from {old:.6g}"
        summary[w][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        print(f"{w:8} {name:22} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f} {bound:6.2f}{flag}")
with open(f"{out}/summary.json", "w") as f:
    json.dump(summary, f, indent=1)
EOF

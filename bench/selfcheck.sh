#!/usr/bin/env bash
# selfcheck.sh — does the benchmark agree with itself?
#
# Runs two alternating sets (A1 B1 A2 B2 ...) of N full end-to-end runs
# of the same binary on every workload, run i of both sets on seed
# SEED+i, and prints per workload x metric each set's median and
# quartiles, the spread (distance between the quartiles over the median,
# quartiles as Python's statistics.quantiles(n=4) gives them) and the
# gap (how much worse set B's median is than set A's), both against the
# metric's bound in BENCHMARK.json. Exits non-zero if a spread (setup_s
# excepted) or a gap exceeds its bound.
#
#   bench/selfcheck.sh [N=10] [SEED=0] [workload ...]
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
n=${1:-10}
seed=${2:-0}
shift $(($# < 2 ? $# : 2))
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
  mapfile -t workloads < <(python3 -c 'import json; print(*[w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]], sep="\n")')
fi
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
out=.bench_build/selfcheck
rm -rf "$out"
mkdir -p "$out"
for w in "${workloads[@]}"; do
  for i in $(seq 1 "$n"); do
    for set in A B; do
      echo "selfcheck: $w set $set run $i/$n" >&2
      bash bench/run.sh --workload "$w" --seed $((seed + i)) --seconds "$seconds" --trace 0 | tail -n 1 >>"$out/$w.$set.jsonl"
    done
  done
done
python3 - "$out" "${workloads[@]}" <<'EOF'
import json, statistics, sys
out, workloads = sys.argv[1], sys.argv[2:]
spec = {m["name"]: m for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
bad = 0
print(f'{"workload":16} {"metric":17} {"A q1":>11} {"A median":>11} {"A q3":>11} {"B median":>11} {"spreadA":>8} {"spreadB":>8} {"gap":>8} {"bound":>6}')
for w in workloads:
    sets = {}
    for s in "AB":
        runs = [json.loads(l) for l in open(f"{out}/{w}.{s}.jsonl")]
        if not all(r["correct"] and r["failed"] == 0 for r in runs):
            print(f"{w}: set {s} has an incorrect run or failed operations")
            bad += 1
        sets[s] = runs
    for name, m in spec.items():
        med, spread, q = {}, {}, {}
        for s, runs in sets.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            q[s] = statistics.quantiles(vals, n=4)
            med[s] = statistics.median(vals)
            spread[s] = (q[s][2] - q[s][0]) / med[s]
        gap = (med["B"] - med["A"]) / med["A"]
        if m["better"] == "higher":
            gap = -gap
        flag = ""
        if gap > m["bound"] or (name != "setup_s" and max(spread.values()) > m["bound"]):
            flag, bad = "  BREACH", bad + 1
        print(f'{w:16} {name:17} {q["A"][0]:11.4f} {med["A"]:11.4f} {q["A"][2]:11.4f} {med["B"]:11.4f} '
              f'{spread["A"]:8.2%} {spread["B"]:8.2%} {gap:+8.2%} {m["bound"]:6.0%}{flag}')
sys.exit(1 if bad else 0)
EOF

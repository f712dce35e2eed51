#!/usr/bin/env bash
# Paired A/B of the repo benchmark (perfbench) between a parent revision
# and the working tree, the protocol DESIGN.md §2c asks of a perf claim.
#
#   scripts/perf_ab.sh <parent-rev> [pairs]
#
# Checks the parent out with `git worktree` into a temp dir and runs
# `pairs` pairs (default 10) of untraced `perfbench/run.py` runs on
# `paper` and `droptail`, each side through its own tree's run.py with its
# own CARGO_TARGET_DIR, at the benchmark's `run_seconds` from
# BENCHMARK.json; pair i uses seed i and alternates which side runs
# first. Prints every pair, then per workload both sides' medians and the
# parent's quartiles of wall_ms, packets_per_s and setup_s. Exits 1 if a
# build or run fails or any run reports an incorrect or failed
# simulation, 2 on a usage error.

set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: scripts/perf_ab.sh <parent-rev> [pairs]" >&2
    exit 2
}
[[ $# -ge 1 && $# -le 2 ]] || usage
parent_rev=$1
pairs=${2:-10}
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage
git rev-parse --verify --quiet "$parent_rev^{commit}" >/dev/null || {
    echo "perf_ab: unknown revision $parent_rev" >&2
    exit 2
}
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

tmp=$(mktemp -d)
cleanup() {
    git worktree remove --force "$tmp/parent" 2>/dev/null || true
    git worktree prune
    rm -rf "$tmp"
}
trap cleanup EXIT
git worktree add --quiet --detach "$tmp/parent" "$parent_rev"

results=$tmp/results.jsonl
run() { # <side> <workload> <seed>
    local tree=$PWD target=$PWD/.bench_build line
    if [[ $1 == parent ]]; then
        tree=$tmp/parent
        target=$tmp/parent_build
    fi
    line=$(CARGO_TARGET_DIR=$target python3 "$tree/perfbench/run.py" --workload "$2" \
        --seed "$3" --seconds "$seconds" --trace 0 2>"$tmp/stderr" | tail -n 1) || {
        tail -n 20 "$tmp/stderr" >&2
        echo "perf_ab: $1 run.py failed on $2 seed $3" >&2
        exit 1
    }
    echo "{\"side\": \"$1\", \"workload\": \"$2\", \"seed\": $3, \"run\": $line}" >>"$results"
}

echo "==> parent ($parent_rev) vs working tree, $pairs pairs of ${seconds} s runs per workload"
for workload in paper droptail; do
    for ((i = 1; i <= pairs; i++)); do
        if ((i % 2)); then order="parent change"; else order="change parent"; fi
        for side in $order; do
            run "$side" "$workload" "$i"
        done
        echo "    $workload pair $i/$pairs done ($order)"
    done
done

python3 - "$results" <<'EOF'
import json, statistics, sys

rows = [json.loads(line) for line in open(sys.argv[1])]
METRICS = ["wall_ms", "packets_per_s", "setup_s"]
bad = [r for r in rows if not r["run"]["correct"] or r["run"]["failed"] > 0]
for r in bad:
    print(f"FAIL: {r['side']} {r['workload']} seed {r['seed']}: {json.dumps(r['run'])}", file=sys.stderr)
if bad:
    sys.exit(1)

def metric(r, name):
    return r["run"]["metrics"][name]["value"]

for workload in ["paper", "droptail"]:
    print(f"\n{workload}")
    by = {(r["side"], r["seed"]): r for r in rows if r["workload"] == workload}
    seeds = sorted({s for _, s in by})
    print("  seed " + "".join(f"{m + ' parent':>22}{m + ' change':>22}" for m in METRICS))
    for s in seeds:
        cells = "".join(
            f"{metric(by['parent', s], m):22.6g}{metric(by['change', s], m):22.6g}" for m in METRICS
        )
        print(f"  {s:4d} {cells}")
    for m in METRICS:
        p = [metric(by["parent", s], m) for s in seeds]
        c = [metric(by["change", s], m) for s in seeds]
        q = statistics.quantiles(p, n=4, method="inclusive") if len(p) > 1 else [p[0]] * 3
        pm, cm = statistics.median(p), statistics.median(c)
        print(
            f"  {m:14} median parent {pm:.6g} change {cm:.6g} ({100 * (cm / pm - 1):+.1f}%),"
            f" parent quartiles {q[0]:.6g} / {q[2]:.6g}"
        )

print("\nevery run correct, none failed")
EOF

#!/usr/bin/env bash
# Record A/B: regenerates every record of the experiment table on a parent
# revision and on the working tree, and compares them byte for byte. This
# is the check behind a claim that a refactor leaves every record
# unchanged.
#
#   scripts/records_ab.sh <parent-rev> [binary flags...]
#   scripts/records_ab.sh HEAD~1 --seed 7
#
# Checks the parent out with `git worktree` into a temp dir and builds
# dibs-bench's binaries on both trees, each with its own CARGO_TARGET_DIR.
# Then runs `sweep <id> --quick` for every id the working tree's `sweep`
# lists, on both sides, with DIBS_RESULTS_DIR pointing into a temp dir per
# side. A parent whose `sweep` does not list an id runs its binary of that
# name instead (older trees built Figs 1–6 as binaries of their own).
# Extra arguments (`--seed N`, `--jobs N`) go to every run. `cmp`s each
# JSON record;
# exits 1 listing every record that differs, is missing on one side or
# whose run failed, 2 on a usage error.

set -euo pipefail
cd "$(dirname "$0")/.."

[[ $# -ge 1 ]] || {
    echo "usage: scripts/records_ab.sh <parent-rev> [binary flags...]" >&2
    exit 2
}
parent_rev=$1
shift
flags=("$@")
git rev-parse --verify --quiet "$parent_rev^{commit}" >/dev/null || {
    echo "records_ab: unknown revision $parent_rev" >&2
    exit 2
}

tmp=$(mktemp -d)
cleanup() {
    git worktree remove --force "$tmp/parent" 2>/dev/null || true
    git worktree prune
    rm -rf "$tmp"
}
trap cleanup EXIT
git worktree add --quiet --detach "$tmp/parent" "$parent_rev"

build() { # <tree> <target>
    (cd "$1" && CARGO_TARGET_DIR=$2 cargo build -q --release --offline -p dibs-bench --bins)
}
echo "==> building the parent ($parent_rev) and the working tree"
build "$tmp/parent" "$tmp/parent_build"
build "$PWD" "$PWD/target"

# `sweep` with no id lists the valid ids and exits 2.
list_ids() { # <bin dir>
    ("$1/sweep" 2>&1 || true) | sed -n 's/.*valid ids: //p' | tr -d ','
}
ids=$(list_ids target/release)
[[ -n $ids ]] || {
    echo "records_ab: sweep listed no ids" >&2
    exit 1
}
parent_ids=" $(list_ids "$tmp/parent_build/release" | tr '\n' ' ') "

failed=()
run() { # <side> <bin dir> <binary> [args...]
    local side=$1 dir=$2 bin=$3
    shift 3
    DIBS_RESULTS_DIR="$tmp/records_$side" "$dir/$bin" "$@" --quick "${flags[@]}" \
        >>"$tmp/$side.log" 2>&1 || failed+=("$side: $bin $*")
}
for side in parent change; do
    dir=$PWD/target/release
    [[ $side == parent ]] && dir=$tmp/parent_build/release
    echo "==> $side: every id at --quick ${flags[*]}"
    for id in $ids; do
        if [[ $side == parent && $parent_ids != *" $id "* ]]; then
            run "$side" "$dir" "$id"
        else
            run "$side" "$dir" sweep "$id"
        fi
    done
done

differ=()
for id in $ids; do
    a=$tmp/records_parent/$id.json b=$tmp/records_change/$id.json
    if [[ ! -f $a || ! -f $b ]]; then
        differ+=("$id (missing)")
    elif ! cmp -s "$a" "$b"; then
        differ+=("$id")
    fi
done
count=$(wc -w <<<"$ids")
if ((${#failed[@]} + ${#differ[@]})); then
    for f in "${failed[@]}"; do echo "FAILED RUN: $f" >&2; done
    for d in "${differ[@]}"; do echo "DIFFERS: $d" >&2; done
    echo "records_ab: ${#differ[@]} of $count records differ" >&2
    exit 1
fi
echo "all $count records identical"

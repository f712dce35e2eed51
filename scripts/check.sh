#!/usr/bin/env bash
# Pre-PR gate: run everything CI would, in the order that fails fastest.
#
#   scripts/check.sh          # the whole gate, fast test tier (~15 s)
#   scripts/check.sh --quick  # skip the test suite (format/lint only)
#   scripts/check.sh --full   # include tier-2 tests (#[ignore]d slow
#                             # sweeps; minutes, not seconds)
#
# Every command is hermetic: no network, no external toolchain beyond the
# pinned rustc. A clean exit here is the bar for opening a PR; --full is
# the bar for changes that touch simulation semantics.

set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
full=0
case "${1:-}" in
--quick) quick=1 ;;
--full) full=1 ;;
esac

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> dibs-lint (simulation-safety static analysis)"
cargo run -q -p dibs-lint --offline -- crates

if [[ $quick -eq 0 ]]; then
    if [[ $full -eq 1 ]]; then
        echo "==> cargo test --workspace (full: tier-1 + tier-2)"
        cargo test --workspace --offline -q -- --include-ignored
        echo "==> perfbench (paper workload, traced, 1 s: every run checked)"
        # Built as perfbench/run.py builds it. perfbench exits 0 even when a
        # simulation fails its checks, so the verdict is its last line.
        CARGO_TARGET_DIR=.bench_build cargo build -q --release --offline \
            --manifest-path perfbench/Cargo.toml
        verdict=$(.bench_build/release/dibs-perfbench --workload paper --seed 1 \
            --seconds 1 --trace 1 | tail -n 1)
        if [[ $verdict != *'"correct": true'* || $verdict != *'"failed": 0,'* ]]; then
            echo "FAIL: perfbench reported an incorrect run: $verdict" >&2
            exit 1
        fi
        echo "    every perfbench simulation correct, none failed"
        echo "==> simtest --smoke (64-seed fault-injection soak)"
        cargo run -q -p dibs-harness --release --offline --bin simtest -- --smoke
        echo "==> trace smoke (traced incast: valid Chrome JSON, digest unchanged)"
        tmp=$(mktemp -d)
        trap 'rm -rf "$tmp"' EXIT
        cargo run -q -p dibs-cli --release --offline --bin dibs-sim -- \
            --digest scenarios/incast.json | grep '^digest' >"$tmp/untraced"
        cargo run -q -p dibs-cli --release --offline --bin dibs-sim -- \
            --digest --trace all scenarios/incast.json | grep '^digest' >"$tmp/traced"
        if ! diff -u "$tmp/untraced" "$tmp/traced"; then
            echo "FAIL: tracing perturbed the run digest" >&2
            exit 1
        fi
        # dibs-sim only writes the file after its Chrome JSON re-parses
        # through dibs-json, so existence means the exporter validated it;
        # when python3 is around, cross-check with an independent parser.
        chrome=results/trace_incast_dctcpdibs.json
        if [[ ! -f "$chrome" ]]; then
            echo "FAIL: traced run did not export $chrome" >&2
            exit 1
        fi
        if command -v python3 >/dev/null; then
            python3 -m json.tool "$chrome" >/dev/null
        fi
        echo "    digest identical traced vs untraced; Chrome JSON valid"
        # Both exit non-zero when the trace yields no detoured delivery.
        echo "==> Fig 1 from the trace (fig01_detour_path, detour_trace example)"
        DIBS_RESULTS_DIR="$tmp" cargo run -q -p dibs-bench --release --offline \
            --bin fig01_detour_path >/dev/null
        cargo run -q --release --offline --example detour_trace >/dev/null
        echo "    most-detoured packet rebuilt from dibs-trace"
        echo "==> sweep table (fig09 at --jobs 1 and 2 write identical records)"
        for j in 1 2; do
            DIBS_RESULTS_DIR="$tmp/sweep_j$j" cargo run -q -p dibs-bench --release \
                --offline --bin sweep -- fig09_query_rate --quick --jobs "$j" >/dev/null
        done
        cmp "$tmp/sweep_j1/fig09_query_rate.json" "$tmp/sweep_j2/fig09_query_rate.json"
        status=0
        cargo run -q -p dibs-bench --release --offline --bin sweep -- no_such_id \
            2>/dev/null || status=$?
        if [[ $status -ne 2 ]]; then
            echo "FAIL: sweep no_such_id exited $status, expected 2" >&2
            exit 1
        fi
        echo "    --jobs 1/2 records identical; unknown id exits 2"
    else
        echo "==> cargo test --workspace (fast tier; --full adds tier-2)"
        cargo test --workspace --offline -q
    fi
fi

echo "==> all checks passed"

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
        echo "==> perf_hotpath --smoke (hot-path bench suite, CI-sized)"
        cargo run -q -p dibs-bench --release --offline --bin perf_hotpath -- --smoke
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
    else
        echo "==> cargo test --workspace (fast tier; --full adds tier-2)"
        cargo test --workspace --offline -q
    fi
fi

echo "==> all checks passed"

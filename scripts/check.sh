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
        echo "==> perfbench per-event path compiled into the dispatch loop (nm)"
        # perfbench builds with Cargo's default release profile (16 codegen
        # units, no LTO), where a cross-crate call that lacks #[inline] stays
        # a call per event (DESIGN.md §2c). Simulation::kick has four call
        # sites and may stay out of line.
        symbols=$(nm -C --defined-only .bench_build/release/dibs-perfbench)
        if ! grep -q '[: ]Simulation::run$' <<<"$symbols"; then
            echo "FAIL: no Simulation::run symbol in dibs-perfbench; cannot check inlining" >&2
            exit 1
        fi
        out_of_line=()
        for f in Engine::next_event Engine::schedule_in EventQueue::pop_at_or_before \
            EventQueue::pop_impl EventQueue::push_after SimDuration::serialization \
            Fib::select_port_memo EcmpMemo::get_or_insert_with SwitchCore::enqueue \
            SwitchCore::admit SwitchCore::maybe_mark SwitchCore::dequeue PortQueue::push \
            PortQueue::pop Simulation::on_switch_arrive Simulation::route_and_enqueue \
            Simulation::switch_dequeue Simulation::on_tx_complete; do
            if grep -Eq "[: ]${f%%::*}(<[^>]*>)?::${f#*::}(\$|[^A-Za-z0-9_])" <<<"$symbols"; then
                out_of_line+=("$f")
            fi
        done
        if [[ ${#out_of_line[@]} -gt 0 ]]; then
            echo "FAIL: defined out of line in dibs-perfbench: ${out_of_line[*]}" >&2
            exit 1
        fi
        echo "    every per-event function but Simulation::kick inlined"
        echo "==> simtest --smoke (64-seed fault-injection soak)"
        cargo run -q -p dibs-harness --release --offline --bin simtest -- --smoke
        echo "==> trace smoke (traced incast under all three schemes: valid Chrome JSON, digests unchanged under all and flight:64)"
        tmp=$(mktemp -d)
        trap 'rm -rf "$tmp"' EXIT
        # --compare runs dctcp, dctcp_dibs and pfabric; pFabric's probe-mode
        # timeouts emit their own trace events.
        cargo run -q -p dibs-cli --release --offline --bin dibs-sim -- \
            --digest --compare scenarios/incast.json | grep '^digest' >"$tmp/untraced"
        if [[ $(wc -l <"$tmp/untraced") -ne 3 ]]; then
            echo "FAIL: --compare did not print three digests" >&2
            exit 1
        fi
        cargo run -q -p dibs-cli --release --offline --bin dibs-sim -- \
            --digest --compare --trace all scenarios/incast.json | grep '^digest' >"$tmp/traced"
        if ! diff -u "$tmp/untraced" "$tmp/traced"; then
            echo "FAIL: tracing perturbed the run digest" >&2
            exit 1
        fi
        # dibs-sim only writes the file after its Chrome JSON re-parses
        # through dibs-json, so existence means the exporter validated it;
        # when python3 is around, cross-check with an independent parser.
        for scheme in dctcp dctcpdibs pfabric; do
            chrome=results/trace_incast_$scheme.json
            if [[ ! -f "$chrome" ]]; then
                echo "FAIL: traced run did not export $chrome" >&2
                exit 1
            fi
            if command -v python3 >/dev/null; then
                python3 -m json.tool "$chrome" >/dev/null
            fi
        done
        # The flight ring is the same tracer with a bounded capacity: it
        # must leave the digest alone too.
        cargo run -q -p dibs-cli --release --offline --bin dibs-sim -- \
            --digest --compare --trace flight:64 scenarios/incast.json | grep '^digest' >"$tmp/flight"
        if ! diff -u "$tmp/untraced" "$tmp/flight"; then
            echo "FAIL: the flight recorder perturbed the run digest" >&2
            exit 1
        fi
        echo "    three digests identical traced (all, flight:64) vs untraced; Chrome JSON valid"
        # Both exit non-zero when the trace yields no detoured delivery.
        echo "==> Fig 1 from the trace (sweep fig01_detour_path, detour_trace example)"
        DIBS_RESULTS_DIR="$tmp" cargo run -q -p dibs-bench --release --offline \
            --bin sweep -- fig01_detour_path >/dev/null
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

#!/usr/bin/env python3
"""Builds and runs the DIBS simulator benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <paper|droptail> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is the Rust package next to this script. It depends on the
simulator crates by path, so it is built here from source: `cargo build
--release --offline` into `$CARGO_TARGET_DIR` (default `.bench_build` at the
repository root). The build's own output goes to standard error; the
benchmark's result is the last line of standard output, a JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`. See `src/main.rs`
for what each workload and metric measures.

Exits non-zero, without a result, when the build or the benchmark fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = "dibs-perfbench"


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    return p.parse_args()


def main():
    args = parse_args()
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print(f"run.py: building the benchmark failed ({build.returncode})", file=sys.stderr)
        return 1
    bench = subprocess.run(
        [
            os.path.join(target, "release", EXE),
            "--workload",
            args.workload,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            args.trace,
        ],
        cwd=ROOT,
    )
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())

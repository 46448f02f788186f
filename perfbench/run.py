#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The Rust program (perfbench/sksbench) is
built in release mode into $CARGO_TARGET_DIR (default .bench_build);
databases and span dumps go under .bench_work. The last line of standard
output is its JSON result; the exit code is non-zero when the
build fails, the run fails, or a correctness check fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "sksbench", "Cargo.toml")
# Longest a single run may take once built; a run must end within 180 s.
RUN_TIMEOUT_S = 170


def main() -> int:
    root = os.getcwd()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=root,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "sksbench")
    work = os.path.join(root, ".bench_work")
    try:
        run = subprocess.run(
            [binary, *sys.argv[1:], "--work-dir", work],
            cwd=root,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 124
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

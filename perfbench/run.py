#!/usr/bin/env python3
"""Build and run the darms benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark package (perfbench/Cargo.toml) in release mode into
$CARGO_TARGET_DIR (default: .bench_build at the repository root), then
runs it with the same arguments. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. The exit code is the
benchmark's: 0 on success, 2 when a correctness check failed, 1 on a
usage or build error.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BIN = "darms-perfbench"


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
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
            "--bin",
            BIN,
        ],
        env=env,
        stdout=sys.stderr,
        cwd=ROOT,
    )
    if build.returncode != 0:
        print(f"run.py: building {BIN} failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([os.path.join(target, "release", BIN)] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

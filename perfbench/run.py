#!/usr/bin/env python3
"""Builds the benchmark and the `vcache` daemon from source, then runs one
workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload sim|check|serve \
        --seed N --seconds S --trace 0|1

The last line of standard output is the result object. Build output goes
to standard error. Artifacts land in $CARGO_TARGET_DIR (default
`.bench_build`).
"""

import os
import subprocess
import sys


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "Cargo.toml", "--bin", "vcache"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        # Cargo's own output must never reach our stdout: the result is
        # read from its last line.
        code = subprocess.run(cmd, env=env, stdout=sys.stderr).returncode
        if code != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return code
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--vcache", os.path.join(release, "vcache")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())

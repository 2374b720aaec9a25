#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload join-agg --seed 1 --seconds 10 --trace 0

Run from the repository root. The Go program in this directory is built
into .bench_build/ (with its build cache there too) and then run with
the given arguments; its last line of standard output is the result.
See README.md for the workloads and metrics.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def go_env():
    # Keep every file the toolchain writes inside the build directory,
    # and never let it reach for the network.
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
    )
    return env


def commit():
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return ""
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return ""
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return ""
    return lines[1]


def main():
    os.makedirs(BUILD, exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    env = go_env()
    try:
        build = subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=HERE, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    env["PERFBENCH_COMMIT"] = commit()
    try:
        res = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    return res.returncode


if __name__ == "__main__":
    sys.exit(main())

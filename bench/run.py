#!/usr/bin/env python3
"""Build and run one workload of the host-throughput benchmark.

Run from the root of the repository:

    python3 bench/run.py --workload miss-chase --seed 7 --seconds 10 --trace 0

It builds bench/cmd/edbench with the Go toolchain on PATH, keeping the
build cache, temporary files and the binary under .bench_build (or under
$CARGO_TARGET_DIR when set), then runs the workload once. --trace 1 selects
the traced run, which prints the per-layer metrics and writes its spans to
.bench_build/trace-<workload>-<seed>.json. The last line of standard output
is the result as one JSON object. The exit status is the benchmark's own; a
failed build exits with 1 and prints no result.
"""

import argparse
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

# A run exits well inside three minutes; the first build of a checkout may
# take much longer, since it compiles the standard library into an empty
# cache.
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def go_env(build_dir):
    """Return an environment that keeps every file the Go toolchain
    writes inside build_dir and never reaches the network."""
    dirs = {
        "GOCACHE": "gocache",
        "GOPATH": "gopath",
        "GOMODCACHE": os.path.join("gopath", "pkg", "mod"),
        "GOTMPDIR": "tmp",
        "TMPDIR": "tmp",
        "HOME": "home",
        "XDG_CONFIG_HOME": os.path.join("home", ".config"),
        "XDG_CACHE_HOME": os.path.join("home", ".cache"),
    }
    env = dict(os.environ)
    for key, rel in dirs.items():
        path = os.path.join(build_dir, rel)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env.update({
        "GOENV": "off",
        "GOFLAGS": "-mod=readonly",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    go = shutil.which("go")
    if go is None:
        print("run.py: the go toolchain is not on PATH", file=sys.stderr)
        return 1
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = go_env(build_dir)
    binary = os.path.join(build_dir, "edbench")
    try:
        build = subprocess.run([go, "build", "-o", binary, "./cmd/edbench"],
                               cwd=BENCH_DIR, env=env, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: build timed out", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1

    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds)]
    if args.trace:
        cmd += ["-trace", os.path.join(build_dir, f"trace-{args.workload}-{args.seed}.json")]
    try:
        run = subprocess.run(cmd, cwd=BENCH_DIR, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

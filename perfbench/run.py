#!/usr/bin/env python3
"""Builds the benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a GRETA checkout. The first call configures and builds
the library and the perfbench driver (Release) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls only rebuild what changed.
Build output goes to stderr; the driver's report goes to stdout, and its
last line is the JSON result. Extra flags (--scale, --tamper) are passed
through to the driver unchanged.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main(argv):
    parser = argparse.ArgumentParser(add_help=False)
    for flag in ("--workload", "--seed", "--trace"):
        parser.add_argument(flag)
    known, _ = parser.parse_known_args(argv)
    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = [os.path.join(out, "perfbench"), "--commit", git_commit(), *argv]
    if known.trace == "1":
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        args += ["--spans",
                 os.path.join(spans, f"{known.workload}-seed{known.seed}.csv")]
    sys.stdout.flush()
    return subprocess.run(args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

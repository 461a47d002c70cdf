#!/usr/bin/env python3
"""Build and run the Herald benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds libherald from src/ plus the benchmark program
(perfbench/herald_bench.cc) into .bench_build/perfbench with CMake in
Release mode, then runs one benchmark process with the given arguments
and exits with its exit code. Build output goes to stderr; the program's
stdout (metric table, then one JSON line) is passed through unchanged.
Traced runs (--trace 1) write their spans to
.bench_build/perfbench/trace-<workload>.json unless --trace-out is given.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "herald_bench"


def build():
    """Configure (first time) and build; returns True on success."""
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not (BUILD / "CMakeCache.txt").exists() and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", str(BUILD), "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    return True


def arg_value(args, flag):
    if flag in args:
        i = args.index(flag)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if arg_value(args, "--trace") == "1" and "--trace-out" not in args:
        workload = arg_value(args, "--workload") or "run"
        args += ["--trace-out", str(BUILD / f"trace-{workload}.json")]
    sys.stdout.flush()
    return subprocess.run([str(BINARY)] + args).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Tiny-size self-test of the Herald benchmark.

Usage (from the repository root):

    python3 perfbench/selftest.py

Builds the benchmark the way run.py does, then runs the benchmark program at
--size tiny (a 9-candidate grid, a 4-seed panel, short streams):

  * every workload, untraced and traced, exits 0 with correct = true and
    reports exactly the end_to_end (untraced) or per_layer (traced)
    metrics of BENCHMARK.json, each with its declared unit;
  * the traced run's Chrome trace file parses and holds its spans;
  * two processes with the same seed report identical simulated metrics;
  * a deliberately broken identity check and a deliberately broken online
    accounting check (--inject-fault) each make the run exit non-zero
    with correct = false.

Exits 0 when every check holds, 1 otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SIMULATED = [
    "dse_best_edp",
    "anneal_edp_ratio_p50",
    "anneal_edp_ratio_max",
    "offline_makespan_ms",
    "online_latency_p50_ms",
    "online_latency_p999_ms",
]
TRACE_FILE = run.BUILD / "selftest-trace.json"

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def invoke(workload, trace=0, seed=7, fault=None):
    cmd = [str(run.BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    if trace:
        cmd += ["--trace-out", str(TRACE_FILE)]
    if fault:
        cmd += ["--inject-fault", fault]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return proc.returncode, result


def expect_metrics(result, declared, what):
    got = result["metrics"]
    check(list(got) == [m["name"] for m in declared],
          f"{what}: emits exactly the declared metrics, in order")
    for m in declared:
        entry = got.get(m["name"])
        check(entry is not None and entry["unit"] == m["unit"]
              and isinstance(entry["value"], (int, float)),
              f"{what}: {m['name']} has unit {m['unit']}")


def main():
    if not run.build():
        print("selftest: build failed", file=sys.stderr)
        return 1
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    for w in workloads:
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            what = f"{w} trace {trace}"
            code, result = invoke(w, trace)
            check(code == 0 and result is not None, f"{what}: exits 0")
            if result is None:
                continue
            check(sorted(result) ==
                  ["attempted", "correct", "failed", "metrics"],
                  f"{what}: result has exactly its four keys")
            check(result["correct"] is True and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{what}: correct, nothing failed")
            expect_metrics(result, declared, what)
            if trace:
                events = json.loads(TRACE_FILE.read_text())["traceEvents"]
                check(len(events) > 0 and all(
                    e["ph"] == "X" and e["dur"] >= 0 for e in events),
                    f"{what}: trace file holds complete spans")

    _, a = invoke(workloads[0], seed=11)
    _, b = invoke(workloads[0], seed=11)
    check(a is not None and b is not None and all(
        a["metrics"][m]["value"] == b["metrics"][m]["value"]
        for m in SIMULATED),
        "same seed, two processes: identical simulated metrics")

    for fault, w in (("identity", "dse_anneal_panel"),
                     ("accounting", "online_knee")):
        for trace in (0, 1):
            code, result = invoke(w, trace, fault=fault)
            check(code != 0 and result is not None
                  and result["correct"] is False and result["failed"] > 0,
                  f"broken {fault} check, trace {trace}: exits non-zero")

    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

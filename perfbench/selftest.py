#!/usr/bin/env python3
"""Self-test of the benchmark harness at smoke size (about a minute).

    python3 perfbench/selftest.py

Run from the repository root. For every workload it runs perfbench/run.py
--smoke untraced and traced on seed 1, and untraced on seed 2, and checks
that each run reports zero failed operations, prints exactly the metrics
BENCHMARK.json lists for its mode, with matching units and valid names, and
(traced) writes a Chrome trace that tools/validate_trace.py accepts. It then
runs each workload with --bad-digest and checks that the corrupted reference
is reported as failed operations. Exits non-zero on the first problem.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SECONDS = "3"


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", SECONDS, "--trace",
           str(trace), "--smoke", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=240,
                          cwd=ROOT)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
    last = proc.stdout.strip().splitlines()[-1]
    result = json.loads(last)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(result)}")
    return result, proc.stdout


def check_metrics(label, metrics, spec):
    want = {m["name"]: m["unit"] for m in spec}
    if set(metrics) != set(want):
        raise AssertionError(f"{label}: metrics {sorted(metrics)} != "
                             f"{sorted(want)}")
    for name, m in metrics.items():
        if not NAME.fullmatch(name) or len(name) > 64:
            raise AssertionError(f"{label}: bad metric name {name!r}")
        if m.get("unit") != want[name]:
            raise AssertionError(f"{label}: {name} unit {m.get('unit')!r}")
        if not isinstance(m.get("value"), (int, float)):
            raise AssertionError(f"{label}: {name} value {m.get('value')!r}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    validator = os.path.join(ROOT, "tools", "validate_trace.py")
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    for w in bench["workloads"]:
        name = w["name"]
        for seed, trace in ((1, 0), (1, 1), (2, 0)):
            label = f"{name} seed {seed} trace {trace}"
            result, _ = run(name, seed, trace)
            if not result["correct"] or result["failed"] != 0:
                raise AssertionError(f"{label}: not clean: {result}")
            check_metrics(label, result["metrics"],
                          bench["per_layer" if trace else "end_to_end"])
            if trace:
                path = os.path.join(ROOT, build, "perfbench", "traces",
                                    f"{name}-{seed}.json")
                if os.path.exists(validator):
                    subprocess.run([sys.executable, validator, path],
                                   check=True, cwd=ROOT)
                else:
                    json.load(open(path))
            print(f"ok   {label}: {result['attempted']} attempted")
        result, _ = run(name, 1, 0, "--bad-digest")
        if result["correct"] or result["failed"] == 0:
            raise AssertionError(f"{name}: wrong digest not reported: {result}")
        print(f"ok   {name} --bad-digest: {result['failed']} of "
              f"{result['attempted']} failed, as it must")
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (AssertionError, subprocess.SubprocessError, ValueError) as e:
        print(f"selftest: FAILED: {e}", file=sys.stderr)
        sys.exit(1)

#!/usr/bin/env python3
"""Benchmark entry point: build the harness from source, run one workload.

    python3 perfbench/run.py --workload sim_dense|sim_sync|serve_mix \
        --seed N --seconds S --trace 0|1 [--smoke] [--bad-digest]

Run from the repository root. The harness (perfbench/perfbench.cpp) and the
library sources under src/ are compiled into $CARGO_TARGET_DIR (default
.bench_build) on first use; later runs reuse the build. Build output goes to
stderr, so the last line of stdout is always the harness's JSON result.
Everything the run writes (build tree, serve state directories, trace files)
stays under the build directory. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim_dense", "sim_sync", "serve_mix")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configure (a no-op when cached), then rebuild whatever changed."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "-S", HERE, "-B", out_dir,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(out_dir, "fasda_perfbench")


def source_id():
    """git HEAD when available, else a digest of the sources built."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs for the self-test")
    ap.add_argument("--bad-digest", action="store_true",
                    help="corrupt the reference digest (self-test)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seed >= 2**31:
        ap.error("--seed must be in [0, 2^31)")

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expect", os.path.join(HERE, "expected.json"),
           "--state-root", os.path.join(out_dir, "state"),
           "--git-sha", source_id(),
           "--command", "python3 perfbench/run.py " + " ".join(argv)]
    if args.smoke:
        cmd.append("--smoke")
    if args.bad_digest:
        cmd.append("--bad-digest")
    if args.trace:
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-{args.seed}.json")]

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        print(f"perfbench: harness exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

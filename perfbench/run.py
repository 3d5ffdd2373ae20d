#!/usr/bin/env python3
"""Builds and runs the k/2-hop benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Builds `k2_perfbench` from the repository's src/ tree into
`.bench_build/perfbench` at the repository root (build output goes to
stderr), runs one workload, and prints every metric with its unit. The last
line of stdout is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits non-zero when the build fails, the program fails, or an output check
fails (a convoy set, fingerprint, deterministic counter or wire answer).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DATA_DIR = os.path.join(ROOT, ".bench_build", "perfbench-data")
BINARY = os.path.join(BUILD_DIR, "k2_perfbench")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "k2_perfbench", "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))


def git_sha():
    if shutil.which("git") is None:
        return "unknown"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        sys.exit("perfbench: --seed must be >= 0 and --seconds >= 1")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", DATA_DIR, "--git-sha", git_sha()]
    if args.trace:
        cmd += ["--trace-out", os.path.join(ROOT, ".bench_build",
                                            "perfbench-trace.json")]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(DATA_DIR, ignore_errors=True)
    sys.stderr.write(done.stderr)

    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        keys_ok = sorted(result) == ["attempted", "correct", "failed",
                                     "metrics"]
    except (ValueError, IndexError):
        keys_ok = False
    if not keys_ok:
        sys.stdout.write(done.stdout)
        sys.exit("perfbench: k2_perfbench exited %d without a result"
                 % done.returncode)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    if done.returncode != 0 or not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()

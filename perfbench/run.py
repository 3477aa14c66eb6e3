#!/usr/bin/env python3
"""Repository benchmark: builds perfbench_replay from source, runs a workload.

Run from the repository root:

  python3 perfbench/run.py --workload peak_ch --seed 42 --seconds 24 --trace 0
  python3 perfbench/run.py --workload all --trace 0   # every workload

The first run configures and builds the repository's libraries and the
replay binary into .bench_build/perfbench (Release); later runs only re-check the
build. Readable metric lines go to stdout first; the last stdout line is one
JSON object with the keys correct, attempted, failed and metrics. --trace 1
prints the per-layer metrics instead of the end-to-end ones and writes the
run's spans to .bench_build/traces/.
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
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
GOLDEN = os.path.join(HERE, "golden_digests.txt")
WORKLOADS = ["peak_ch", "peak_exact", "nonpeak_pro"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; True when it succeeded."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except subprocess.TimeoutExpired:
        log("timed out:", " ".join(cmd))
        return False


def configured_for_this_checkout():
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if not os.path.exists(cache):
        return False
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                return line.strip().split("=", 1)[1] == HERE
    return False


def build():
    """Returns the replay binary's path, or None when the build failed."""
    if not configured_for_this_checkout():
        shutil.rmtree(BUILD_DIR, ignore_errors=True)
        if not run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return None
    if not run_quiet(["cmake", "--build", BUILD_DIR, "-j", "4", "--target",
                      "perfbench_replay"], BUILD_TIMEOUT_S):
        return None
    return os.path.join(BUILD_DIR, "perfbench_replay")


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload; returns its result object, or None on failure."""
    os.makedirs(TRACE_DIR, exist_ok=True)
    cmd = [binary, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}",
           f"--trace-out={os.path.join(TRACE_DIR, f'{workload}-{seed}.jsonl')}"]
    if os.path.exists(GOLDEN):
        cmd.append(f"--golden={GOLDEN}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return None
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        log(f"{workload}: perfbench_replay exited with {proc.returncode}")
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(proc.stdout)
        log(f"{workload}: last line is not a result object")
        return None
    print("\n".join(f"[{workload}] {line}" for line in lines[:-1]))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if binary is None:
        log("build failed")
        return 1
    if args.workload != "all":
        result = run_workload(binary, args.workload, args.seed, args.seconds,
                              args.trace)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_workload(binary, workload, args.seed, args.seconds,
                              args.trace)
        if result is None:
            return 1
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print("verdict:", "PASS" if combined["correct"] else "FAIL",
          f"({combined['failed']} of {combined['attempted']} requests failed "
          "a check)")
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())

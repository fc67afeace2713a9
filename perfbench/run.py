#!/usr/bin/env python3
"""Fleet benchmark: builds perfbench/fleet_bench from this checkout's
sources and runs one workload on a K=2 tickpoint fleet.

    python3 perfbench/run.py --workload zipf-cou --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), each run's
fleet root to .bench_run/run-<pid> (removed on exit), and a traced run's
Chrome trace to .bench_out/. The last line of standard output is the
result: {"correct", "attempted", "failed", "metrics"}; the line before it
records the run's environment and operation counts.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("zipf-cou", "uniform-redo-pit", "game-ops")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "fleet.h")):
        fail(f"no tickpoint sources under {ROOT}/src; run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "fleet_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in [1, 600]")
    if "TP_SCHED_FUZZ_SEED" in os.environ:
        fail("refusing to run with TP_SCHED_FUZZ_SEED set: it perturbs the "
             "schedule being measured")

    # A terminated run still stops its child and removes its fleet root:
    # SystemExit unwinds through subprocess.run (which kills and waits for
    # the child) and the finally clause below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    binary = build()
    run_parent = os.path.join(ROOT, ".bench_run")
    run_root = os.path.join(run_parent, f"run-{os.getpid()}")
    os.makedirs(run_parent, exist_ok=True)
    shutil.rmtree(run_root, ignore_errors=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--root", run_root]
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(
            out_dir, f"trace-{args.workload}-{args.seed}.json")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(run_root, ignore_errors=True)
        try:
            os.rmdir(run_parent)
        except OSError:
            pass
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail(f"fleet_bench exited with code {done.returncode}")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        sys.stdout.write(done.stdout)
        fail("outputs did not match the oracle")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()

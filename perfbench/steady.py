#!/usr/bin/env python3
"""Steadiness check for the fleet benchmark.

Runs one workload N times on consecutive seeds and prints, per metric, the
median, the quartiles and the relative interquartile spread
((q3 - q1) / median, quartiles as statistics.quantiles(n=4) gives them)
beside the metric's bound from BENCHMARK.json. Spreads above a third of
the bound are marked '~', above the bound '!'. Runs whose schedule slipped
are flagged: a checkpoint count that differs from the other runs', a run
that reported falling behind its pace, or write_bytes_per_update /
disk_bytes_per_state_byte off the median by more than 1%.

    python3 perfbench/steady.py --workload zipf-cou --runs 10
    python3 perfbench/steady.py --workload game-ops --runs 10 --against ../parent

--against alternates runs between this checkout and another one (which
must hold the same benchmark), starting with the other one on odd pairs,
and prints both sides. Runs are made from each checkout's root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCHEDULE_METRICS = ("write_bytes_per_update", "disk_bytes_per_state_byte")
# Figures the info line carries beside the metrics, reported without a
# bound: their run-to-run spread exceeds any bound BENCHMARK.json allows.
INFO_FIGURES = ("tick_p50_ms", "tick_tail_ms", "cut_checkpoint_s",
                "host_steal_s")


def run_once(checkout, workload, seed, seconds, trace):
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.exit(f"steady: run failed in {checkout} (seed {seed}, "
                 f"code {done.returncode})")
    info = json.loads(lines[-2])["info"]
    result = json.loads(lines[-1])
    return info, result


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def report(label, runs, bounds):
    print(f"== {label}: {len(runs)} runs")
    names = list(runs[0][1]["metrics"])
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name in names:
        values = [r["metrics"][name]["value"] for _, r in runs]
        med, q1, q3, rel = spread(values)
        bound = bounds.get(name)
        mark = ""
        if bound is not None:
            mark = "!" if rel > bound else "~" if rel > bound / 3 else ""
        unit = runs[0][1]["metrics"][name]["unit"]
        bound_text = f"{bound:.2f}" if bound is not None else "-"
        print(f"{name + ' (' + unit + ')':34} {med:12.6g} {q1:12.6g} "
              f"{q3:12.6g} {rel:8.3f} {bound_text:>6} {mark}")
    for name in INFO_FIGURES:
        values = [info[name] for info, _ in runs if name in info]
        if len(values) == len(runs):
            med, q1, q3, rel = spread(values)
            print(f"{name + ' (info)':34} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {rel:8.3f} {'-':>6}")
    counts = [info["periodic_checkpoints"] for info, _ in runs]
    usual = statistics.mode(counts)
    medians = {}
    for name in SCHEDULE_METRICS:
        values = [r["metrics"][name]["value"] for _, r in runs
                  if name in r["metrics"]]
        if values:
            medians[name] = statistics.median(values)
    failed = {(r["attempted"], r["failed"]) for _, r in runs}
    print(f"checkpoints per run: usual {usual}; attempted/failed: "
          f"{sorted(failed)}")
    for info, result in runs:
        why = []
        if info["periodic_checkpoints"] != usual:
            why.append(f"checkpoints {info['periodic_checkpoints']}")
        if info["fell_behind"]:
            why.append("fell behind its pace")
        for name, med in medians.items():
            value = result["metrics"][name]["value"]
            if med and abs(value - med) / med > 0.01:
                why.append(f"{name} {value:.6g} vs median {med:.6g}")
        if why:
            print(f"  seed {info['seed']}: schedule slipped: "
                  + "; ".join(why))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--against", default=None,
                        help="another checkout to alternate runs with")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sides = [("this checkout", ROOT)]
    if args.against:
        sides.append(("against " + args.against,
                      os.path.abspath(args.against)))
    runs = {label: [] for label, _ in sides}
    for i in range(args.runs):
        seed = args.first_seed + i
        order = sides if i % 2 == 0 else list(reversed(sides))
        for label, checkout in order:
            start = time.monotonic()
            info, result = run_once(checkout, args.workload, seed, seconds,
                                    args.trace)
            runs[label].append((info, result))
            print(f"  {label} seed {seed} "
                  f"({time.monotonic() - start:.0f} s): "
                  + ", ".join(f"{k}={v['value']:.6g}"
                              for k, v in result["metrics"].items())
                  + f"; tick p50/p75/p90/p95 ms "
                  f"{info.get('tick_quantiles_ms')}; host steal "
                  f"{info.get('host_steal_s')} s",
                  file=sys.stderr)
    for label, _ in sides:
        report(f"{args.workload} ({label})", runs[label], bounds)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Steadiness check for the benchmark described by BENCHMARK.json.

Runs each workload repeatedly, each run with another seed, and reports
every end-to-end metric's median, quartiles and spread (interquartile
distance as a share of the median) against the metric's bound. With
--sets 2 it repeats the whole set and also compares each set's median with
the first set's. Every run lasts BENCHMARK.json's run_seconds, the length
the bounds were sized for, and the seeds are fixed (1000 onwards). Exits 1
when any spread or median shift exceeds its bound, or when a run fails.

Run from the repository root:

    python3 perfbench/steady.py                      # 10 runs per workload
    python3 perfbench/steady.py --runs 5 --workloads serve_small_mix
    python3 perfbench/steady.py --sets 2             # two sets, compared
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED_BASE = 1000


def run_once(spec, workload, seed, seconds):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs incorrect")
    return result, wall


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workloads", nargs="*")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ok = True
    report = {}
    for workload in workloads:
        medians = []
        for s in range(args.sets):
            values = {name: [] for name in bounds}
            walls = []
            for r in range(args.runs):
                seed = SEED_BASE + s * args.runs + r
                result, wall = run_once(spec, workload, seed, seconds)
                walls.append(wall)
                for name in bounds:
                    values[name].append(result["metrics"][name]["value"])
                print(f"{workload} set {s} seed {seed}: {wall:.1f} s wall, "
                      f"{result['attempted']} attempted, {result['failed']} failed",
                      file=sys.stderr)
            print(f"\n{workload} (set {s}, {args.runs} runs, "
                  f"max wall {max(walls):.1f} s)")
            print(f"  {'metric':18} {'median':>12} {'q1':>12} {'q3':>12} "
                  f"{'spread':>8} {'bound':>6}")
            set_medians = {}
            for name, bound in bounds.items():
                median, q1, q3, spread = summarize(values[name])
                set_medians[name] = median
                flag = ""
                if spread > bound:
                    flag = "  SPREAD OVER BOUND"
                    ok = False
                print(f"  {name:18} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{spread:8.4f} {bound:6.2f}{flag}")
                report.setdefault(workload, {}).setdefault(name, []).append(
                    {"median": median, "q1": q1, "q3": q3, "spread": spread,
                     "values": values[name]})
            medians.append(set_medians)
        for s, later in enumerate(medians[1:], start=1):
            for m in spec["end_to_end"]:
                name, bound = m["name"], m["bound"]
                first, now = medians[0][name], later[name]
                worse = (now - first) / first if m["better"] == "lower" \
                    else (first - now) / first
                flag = ""
                if worse > bound:
                    flag = "  MEDIAN WORSE THAN BOUND"
                    ok = False
                print(f"  set {s} vs set 0: {name:18} {worse:+8.4f}{flag}")

    out = ROOT / ".perfbench_run" / f"steady-{int(time.time())}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print(f"\nraw values: {out.relative_to(ROOT)}")
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

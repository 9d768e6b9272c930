#!/usr/bin/env python3
"""Repeats the benchmark and reports how steady each metric is.

    python3 perfbench/repeat.py [--runs 10] [--first-seed 1]
                                [--workloads a,b] [--trace 0|1] [--out f.json]

Runs every workload --runs times, alternating workloads, each run with the
next seed, using the command, run length and bounds in BENCHMARK.json. For
each metric it prints the median and quartiles over the runs, the spread
(quartile distance over the median) against the metric's bound, and whether
the medians of the first and second half of the runs agree within the bound.
Exits non-zero when a run fails, a result is not correct, the failed share
differs between runs, or an end-to-end metric's spread or halves break its
bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    results = {n: [] for n in names}
    for i in range(args.runs):
        for name in names:
            seed = args.first_seed + i
            r = run_once(spec, name, seed, args.trace)
            results[name].append({"seed": seed, **r})
            print(f"run {i + 1}/{args.runs} {name} seed {seed}: "
                  f"correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']}", file=sys.stderr)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)

    ok = True
    for name in names:
        runs = results[name]
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        ok &= correct and len(shares) == 1
        print(f"\n{name}: {len(runs)} runs, all correct: {correct}, "
              f"failed share: {sorted(shares)}")
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6} {'halves':>7}")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            half = len(values) // 2
            first = statistics.median(values[:half]) if half else med
            second = statistics.median(values[half:])
            drift = abs(second - first) / first if first else 0.0
            bound = bounds.get(metric)
            verdict = ""
            if bound is not None:
                steady = spread <= bound
                agree = drift <= bound
                ok &= steady and agree
                verdict = ("ok" if steady and agree else "NOT OK") + (
                    " (<1/3)" if spread < bound / 3 else "")
            print(f"  {metric:34} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.3f} {bound if bound is not None else '':>6} "
                  f"{drift:7.3f} {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

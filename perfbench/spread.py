#!/usr/bin/env python3
"""Check that the benchmark is steady: run every workload of
BENCHMARK.json on several seeds, in two (or more) sets, and report per
end-to-end metric

  - within each set, the median and the quartile spread (third minus
    first quartile, as statistics.quantiles(values, n=4) gives them) as
    a share of the median, against the metric's bound;
  - between sets, how much worse each later set's median is than the
    first set's, as a share of the first, against the same bound.

    python3 perfbench/spread.py [--runs 10] [--sets 2] [--first-seed 1000] [--workloads a,b]

Every set uses its own seeds. The sets run one after the other, each
over all workloads, so they are as far apart in time as the check
allows. A figure at or over its bound is flagged OVER, one over a third
of it WIDE. Exits 1 if anything is OVER. Run it from the repository
root; it writes the raw results to .bench_run/spread.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}: {lines[-3:]}")
    return result


def flag(share):
    return "ok" if share < 1 / 3 else ("WIDE" if share < 1 else "OVER")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = [w for w in args.workloads.split(",") if w]
    raw = {w: [] for w in workloads}
    worst = 0.0
    medians = {}  # (workload, metric) -> median per set
    for k in range(args.sets):
        for workload in workloads:
            runs = []
            for i in range(args.runs):
                seed = args.first_seed + k * args.runs + i
                runs.append(run_once(workload, seed, bench["run_seconds"]))
                values = "  ".join(f"{name}={m['value']:.4g}"
                                   for name, m in runs[-1]["metrics"].items())
                print(f"set {k + 1} {workload:14} seed {seed}: {values}", flush=True)
            raw[workload].append(runs)
            for metric in bench["end_to_end"]:
                name = metric["name"]
                values = [r["metrics"][name]["value"] for r in runs]
                median = statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median
                share = spread / metric["bound"]
                worst = max(worst, share)
                medians.setdefault((workload, name), []).append(median)
                print(f"set {k + 1} {workload:14} {name:16} median {median:12.4f} "
                      f"{metric['unit']:4} spread {spread:6.3f} bound {metric['bound']:.2f} "
                      f"{flag(share)}", flush=True)
    for workload in workloads:
        for metric in bench["end_to_end"]:
            name = metric["name"]
            first, *later = medians[(workload, name)]
            for k, median in enumerate(later, start=2):
                change = (median - first) / first
                worse = change if metric["better"] == "lower" else -change
                share = max(worse, 0.0) / metric["bound"]
                worst = max(worst, share)
                print(f"set {k} vs 1 {workload:14} {name:16} {first:12.4f} -> {median:12.4f} "
                      f"worse by {worse:+.3f} bound {metric['bound']:.2f} {flag(share)}",
                      flush=True)
    os.makedirs(".bench_run", exist_ok=True)
    with open(os.path.join(".bench_run", "spread.json"), "w") as f:
        json.dump(raw, f)
    print(f"worst figure / bound: {worst:.3f}")
    return 1 if worst >= 1 else 0


if __name__ == "__main__":
    sys.exit(main())

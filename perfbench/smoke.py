#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at tiny input sizes.

    python3 perfbench/smoke.py

Run it from the repository root. For every workload of BENCHMARK.json it
checks that an untraced run emits exactly the end-to-end metrics and a
traced run exactly the per-layer metrics (names and units), with every
answer correct; that a run with one corrupted expected answer counts the
failure and exits non-zero; and that the command fails without printing
a result in a directory holding only BENCHMARK.json and the benchmark's
own files. Exits non-zero on the first violation.
"""
import json
import os
import shutil
import subprocess
import sys


def run(args, cwd="."):
    cmd = [sys.executable, "perfbench/run.py", *args]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=400)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def expect(cond, message):
    if not cond:
        print(f"smoke: FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def check_result(workload, trace, metrics_spec):
    code, lines, err = run(["--workload", workload, "--seed", "7", "--seconds", "1",
                            "--trace", str(trace), "--size", "tiny"])
    expect(code == 0, f"{workload} trace={trace} exited {code}: {lines[-2:]} {err[-500:]}")
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{workload}: result keys {sorted(result)}")
    expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
           f"{workload} trace={trace}: {result['correct']} {result['attempted']} {result['failed']}")
    want = {m["name"]: m["unit"] for m in metrics_spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == want, f"{workload} trace={trace}: metrics {sorted(got)} != {sorted(want)}")
    for name, m in result["metrics"].items():
        expect(isinstance(m["value"], (int, float)), f"{workload}: {name} = {m['value']!r}")
    print(f"smoke: {workload} trace={trace}: {len(got)} metrics, "
          f"{result['attempted']} operations, all correct", flush=True)


def check_injected(workload):
    code, lines, _ = run(["--workload", workload, "--seed", "7", "--seconds", "1",
                          "--trace", "0", "--size", "tiny", "--inject-wrong"])
    expect(code != 0, f"{workload}: a wrong answer still exited 0")
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    expect(result["failed"] > 0 and result["correct"] is False,
           f"{workload}: injected wrong answer not counted: {result}")
    expect(report["failed_frac"] > 0, f"{workload}: failed_frac {report['failed_frac']}")
    print(f"smoke: {workload} injected wrong answer: failed_frac {report['failed_frac']:.3f}, "
          f"exit {code}", flush=True)


def check_bare():
    bare = os.path.join(".bench_run", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
    code, lines, _ = run(["--workload", "explore_zipf", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    expect(code != 0, "the benchmark succeeded without the program's sources")
    expect(not any(line.startswith("{\"correct\"") for line in lines),
           "a result was printed without the program's sources")
    print(f"smoke: without the program's sources: exit {code}, no result", flush=True)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    for name in [w["name"] for w in bench["workloads"]]:
        check_result(name, 0, bench["end_to_end"])
        check_result(name, 1, bench["per_layer"])
        check_injected(name)
    check_bare()
    print("smoke: ok")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build the `dse` binary and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the repository root. The build goes to .bench_build (release
profile); the run's scratch files go to .bench_run. Every argument is
passed on to perfbench/bench.exe, whose last stdout line is the result.
"""
import os
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170


def build():
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
           "--cache=disabled", "./bin/dse.exe", "./perfbench/bench.exe"]
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0
    except OSError as e:
        print(f"perfbench: cannot run dune: {e}", file=sys.stderr)
        return False


def main(argv):
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
    dse = os.path.join(BUILD_DIR, "default", "bin", "dse.exe")
    nproc = len(os.sched_getaffinity(0))
    # its own process group, so a run that overstays can be stopped
    # together with every daemon it started
    proc = subprocess.Popen([exe, *argv, "--dse", dse, "--nproc", str(nproc)],
                            start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s, stopping it", file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 124
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGTERM)
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

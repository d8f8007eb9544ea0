#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

    python3 perfbench/run.py --workload lookup_mix --seed 1 --seconds 15 --trace 0

Run from the repository root.  The first run configures and compiles the
repository's libraries plus the benchmark program (Release) into
.bench_build/perfbench; later runs only relink what changed.  Build output
goes to stderr; stdout carries the program's context line and, last, its
result line.  Exits non-zero without a result when the build fails.
"""
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 175


def option(argv, name, default):
    if name in argv and argv.index(name) + 1 < len(argv):
        return argv[argv.index(name) + 1]
    return default


def build():
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main(argv):
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 3
    workload = option(argv, "--workload", "unknown")
    seed = option(argv, "--seed", "0")
    traces = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(traces, exist_ok=True)
    command = [os.path.join(BUILD, "perfbench"), *argv,
               "--work-dir", os.path.join(ROOT, ".bench_build", "work", workload),
               "--trace-out", os.path.join(traces, f"{workload}-seed{seed}.json")]
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)

    def stop(signum, _frame):
        child.kill()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4
    sys.stdout.write(out)
    sys.stdout.flush()
    return child.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
r"""Builds and runs the delta-path benchmark of the routing daemon.

Run from the repository root:

    python3 deltabench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

The first run configures and builds the library sources and delta_bench into
.bench_build/deltabench (a Release build); later runs only bring that build up
to date. Build output goes to stderr, so the last line of stdout is the
binary's result object. With --trace 1 the spans are written to
.bench_build/deltabench/traces/<workload>-seed<n>.json.

Exits non-zero, without a result, when the build or the run fails.
"""
import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("flap", "metric-churn", "all-dest", "flap-boxed")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "deltabench")
BUILD_TIMEOUT_S = 840
RUN_SLACK_S = 100


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "delta_bench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            print("run.py: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()
    if a.seed < 0 or a.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    # Turn a termination request into an exception, so subprocess.run kills
    # and reaps the child it is waiting on before this process exits.
    def stop(signum, _frame):
        raise SystemExit(128 + signum)
    signal.signal(signal.SIGTERM, stop)

    try:
        if not build():
            return 1
        cmd = [os.path.join(BUILD, "delta_bench"),
               "--workload", a.workload, "--seed", str(a.seed),
               "--seconds", str(a.seconds), "--trace", str(a.trace)]
        if a.trace:
            traces = os.path.join(BUILD, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-out", os.path.join(
                traces, "%s-seed%d.json" % (a.workload, a.seed))]
        done = subprocess.run(cmd, timeout=a.seconds + RUN_SLACK_S,
                              check=False)
        return done.returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        print("run.py: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Client-side serving benchmark: build, run, check.

  python3 perfbench/run.py --workload oltp-commit --seed 1 --seconds 25 --trace 0
  python3 perfbench/run.py --all [--seed 1] [--seconds 25]
  python3 perfbench/run.py --selftest

Run from the repository root. Each call first builds perfbench/ (CMake,
Release) into .bench_build/perfbench, then runs serving_bench in a fresh
work directory under .bench_build/work. A single run forwards the
benchmark's output; its last stdout line is the JSON result. --all runs every
workload untraced and traced and prints every end-to-end metric with its unit
next to the traced server.wire_self_ms and core.us_per_tile. --selftest runs
the harness self-tests. Exits nonzero on any failed request, oracle or
durability mismatch, or build error.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
WORKLOADS = ["oltp-commit", "analytic-tiled", "rtl-sim"]
# One run must finish well inside the 180 s a caller allows it.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: the repository sources (src/) are missing",
              file=sys.stderr)
        sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = [] if os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")) \
        else [configure]
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print("perfbench: build timed out", file=sys.stderr)
            sys.exit(2)
        if done.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            sys.exit(2)


def run_once(workload, seed, seconds, trace):
    """Runs one benchmark; returns (exit code, stdout text)."""
    workdir = os.path.join(WORK, "%s-%d-%d" % (workload, seed, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    command = [os.path.join(BUILD, "serving_bench"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--workdir", workdir]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
        code, out = done.returncode, done.stdout
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out after %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        code, out = 124, ""
    shutil.rmtree(workdir, ignore_errors=True)
    return code, out


def last_json(text):
    lines = [line for line in text.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def run_all(seed, seconds):
    failed = False
    for workload in WORKLOADS:
        results = {}
        for trace in (0, 1):
            code, out = run_once(workload, seed, seconds, trace)
            result = last_json(out) if out else None
            if code != 0 or result is None or not result["correct"]:
                failed = True
            results[trace] = result
        print("== %s (seed %d, %s s)" % (workload, seed, seconds))
        if results[0]:
            for name, metric in results[0]["metrics"].items():
                print("  %-28s %16.4f %s" % (name, metric["value"],
                                             metric["unit"]))
        if results[1]:
            layer = results[1]["metrics"]
            for name in ("server.wire_self_ms", "core.us_per_tile"):
                print("  %-28s %16.4f %s   (traced run)" % (
                    name, layer[name]["value"], layer[name]["unit"]))
        for trace, result in results.items():
            if result is None:
                print("  %s run: FAILED (no result)" %
                      ("traced" if trace else "untraced"))
            elif not result["correct"] or result["failed"]:
                print("  %s run: FAILED (%d of %d requests failed)" % (
                    "traced" if trace else "untraced", result["failed"],
                    result["attempted"]))
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not (args.all or args.selftest or args.workload):
        parser.error("give --workload, --all or --selftest")

    build()
    if args.selftest:
        return subprocess.run([os.path.join(BUILD, "harness_selftest")],
                              cwd=ROOT).returncode
    if args.all:
        return run_all(args.seed, args.seconds)
    code, out = run_once(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())

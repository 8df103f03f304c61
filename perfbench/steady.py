#!/usr/bin/env python3
"""Steadiness of the serving benchmark's end-to-end metrics.

  python3 perfbench/steady.py [--workloads oltp-commit,rtl-sim] [--runs 10]
                              [--first-seed 1] [--save FILE] [--against FILE]

Runs each workload --runs times untraced, one seed per run, through
perfbench/run.py, and prints for every end-to-end metric its median,
quartiles, spread ((Q3 - Q1) / median) and the spread as a share of the
metric's bound in BENCHMARK.json. --save writes the raw values as JSON;
--against compares this set's medians with a saved set's, as a share of the
bound. Exits nonzero if a run fails or a spread (setup_s excepted) or a
median shift exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    return spec, bounds


def worse(metric, old, new):
    """How much worse `new` is than `old`, as a share of `old`."""
    if old == 0:
        return 0.0
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main():
    spec, bounds = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--save")
    parser.add_argument("--against")
    args = parser.parse_args()

    values = {}
    ok = True
    for workload in args.workloads.split(","):
        values[workload] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            done = subprocess.run(
                [sys.executable, RUN, "--workload", workload, "--seed",
                 str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            if done.returncode != 0 or result is None or not result["correct"]:
                print("%s seed %d: FAILED (exit %d)" % (workload, seed,
                                                         done.returncode))
                ok = False
                continue
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print("%s seed %d: ok" % (workload, seed), file=sys.stderr)

    previous = None
    if args.against:
        with open(args.against) as f:
            previous = json.load(f)
    for workload, metrics in values.items():
        print("== %s (%d runs)" % (workload, args.runs))
        print("  %-26s %12s %12s %12s %8s %8s %9s" % (
            "metric", "median", "Q1", "Q3", "spread", "bound", "sprd/bnd"))
        for name, samples in metrics.items():
            if len(samples) < 2:
                continue
            q1, median, q3 = statistics.quantiles(samples, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            metric = bounds.get(name)
            bound = metric["bound"] if metric else float("nan")
            line = "  %-26s %12.4f %12.4f %12.4f %8.4f %8.3f %9.3f" % (
                name, median, q1, q3, spread, bound, spread / bound)
            if metric and name != "setup_s" and spread > bound:
                ok = False
                line += "  SPREAD ABOVE BOUND"
            if previous and metric and name in previous.get(workload, {}):
                old = statistics.median(previous[workload][name])
                shift = worse(metric, old, median)
                line += "  shift %+.4f (%.2f of bound)" % (shift, shift / bound)
                if shift > bound:
                    ok = False
                    line += " WORSE THAN BOUND"
            print(line)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Checks that the benchmark's end-to-end metrics are steady.

Usage (from the root of the repository):

    python3 perfbench/steadiness.py [--seconds S] [--workload W ...]

Runs every workload (or the named ones) ten times in each of two
independent sets, the first with seeds 1-10 and the second with seeds
1001-1010, and reports for every end-to-end metric of BENCHMARK.json:
each set's median, the spread (the distance between the first and third
quartile, as statistics.quantiles(values, n=4) gives them, as a share of
the median), and how much worse the second set's median is than the
first's, both against the metric's bound. The spread of setup_s, one cold
set-up per run, is shown but not held to the bound; its set-to-set
difference is. Also checks that every run was correct and that the share
of failed operations is the same in both sets.

Exits 1 when a check fails. The per-run results and the summary are
written to perfbench/out/steadiness.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SETS = 2


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d exited with %d"
                           % (workload, seed, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def worse_by(first, second, better):
    """How much worse the second median is than the first, as a share."""
    if not first:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in bench["workloads"]])
    a = p.parse_args()
    workloads = a.workload or [w["name"] for w in bench["workloads"]]

    runs = {w: [[] for _ in range(SETS)] for w in workloads}
    for s in range(SETS):
        for w in workloads:
            for i in range(RUNS):
                seed = 1 + 1000 * s + i
                r = run_once(w, seed, a.seconds)
                runs[w][s].append(r)
                print("set %d %-16s seed %-5d correct=%s attempted=%d "
                      "failed=%d" % (s, w, seed, r["correct"],
                                     r["attempted"], r["failed"]),
                      file=sys.stderr)

    ok = True
    summary = {}
    for w in workloads:
        print("\n== %s (%d runs x %d sets, %d s each) =="
              % (w, RUNS, SETS, a.seconds))
        print("%-18s %5s %14s %14s %8s %8s %8s"
              % ("metric", "unit", "median set 1", "median set 2",
                 "spread", "worse", "bound"))
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                  for rs in runs[w]]
        if any(not r["correct"] for rs in runs[w] for r in rs):
            print("  FAIL: a run reported incorrect outputs")
            ok = False
        if len(set(shares)) != 1:
            print("  FAIL: failed-operation share differs between sets: %s"
                  % shares)
            ok = False
        summary[w] = {"failed_share": shares, "metrics": {}}
        for m in bench["end_to_end"]:
            name = m["name"]
            sets = [[r["metrics"][name]["value"] for r in rs]
                    for rs in runs[w]]
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            worse = worse_by(medians[0], medians[1], m["better"])
            held = name != "setup_s"
            bad = worse > m["bound"] or (held and max(spreads) > m["bound"])
            ok = ok and not bad
            print("%-18s %5s %14.6g %14.6g %8.3f %8.3f %8.2f%s"
                  % (name, m["unit"], medians[0], medians[1],
                     max(spreads), worse, m["bound"],
                     "  FAIL" if bad else
                     ("" if not held or max(spreads) < m["bound"] / 3
                      else "  (spread above a third of the bound)")))
            summary[w]["metrics"][name] = {
                "medians": medians, "spreads": spreads, "worse": worse,
                "bound": m["bound"], "values": sets}

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "steadiness.json"), "w") as f:
        json.dump({"runs": RUNS, "sets": SETS, "seconds": a.seconds,
                   "summary": summary}, f, indent=1)
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

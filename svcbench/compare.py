#!/usr/bin/env python3
"""Two sets of repeated runs of one workload, judged against the bounds.

    python3 svcbench/compare.py --workload <name>

Runs the workload twenty times through svcbench/run.py for
BENCHMARK.json's run_seconds each, on seeds 1-10 (set A) and 11-20
(set B).  For every end-to-end metric of BENCHMARK.json it prints each
set's median and quartiles (statistics.quantiles, n=4), its spread
(quartile distance over median), and how far set B's median moved from
set A's in the metric's worse direction.  A metric passes when both
spreads and the move are within its bound.  The workload passes when
every metric passes, every run is correct -- so the correctness checks
run on the default seed 1 and on nineteen more -- and the failed share
is identical in every run.  Exits 1 when anything fails.
"""

import argparse
import fractions
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


RUNS = 10  # per set
SEEDS = range(1, 2 * RUNS + 1)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("compare: run on seed %d exited %d" % (seed,
                                                      proc.returncode))
    return json.loads(lines[-1])


def stats(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / q2


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()

    results = []
    ok = True
    for seed in SEEDS:
        r = run_once(args.workload, seed, bench["run_seconds"])
        results.append(r)
        share = r["failed"] / r["attempted"]
        print("seed %3d  correct %-5s  attempted %7d  failed %5d (%.6f)"
              % (seed, r["correct"], r["attempted"], r["failed"], share))
        ok &= r["correct"] is True
    if len({fractions.Fraction(r["failed"], r["attempted"])
            for r in results}) != 1:
        print("FAIL: the failed share differs between runs")
        ok = False

    sets = (results[:RUNS], results[RUNS:])
    print("\n%-20s %-7s %-34s %-34s %-8s %s" % (
        "metric", "bound", "set A median [q1, q3] spread",
        "set B median [q1, q3] spread", "moved", "verdict"))
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        cols, meds, spreads = [], [], []
        for s in sets:
            med, q1, q3, spread = stats([r["metrics"][name]["value"]
                                         for r in s])
            cols.append("%.5g [%.5g, %.5g] %.3f" % (med, q1, q3, spread))
            meds.append(med)
            spreads.append(spread)
        moved = (meds[1] - meds[0]) / meds[0]
        if m["better"] == "higher":
            moved = -moved
        verdict = "ok" if max(spreads) <= bound and moved <= bound else "FAIL"
        ok &= verdict == "ok"
        print("%-20s %-7.3f %-34s %-34s %-+8.3f %s" % (
            name, bound, cols[0], cols[1], moved, verdict))
    print("\n%s: %s" % (args.workload, "steady and correct" if ok
                        else "NOT steady or not correct"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Steadiness check for the call benchmark.

Runs two sets (A and B) of the same build on every workload
BENCHMARK.json declares, for its run_seconds each, interleaved run by
run, each run on its own seed, and prints for every end-to-end metric of
every workload each set's median and quartiles and whether the sets
agree within the bounds BENCHMARK.json declares:

* spread: (q3 - q1) / median of each set, quartiles as Python's
  statistics.quantiles(values, n=4) gives them, must stay within the
  metric's bound, and is marked "steady" below a third of it;
* shift: set B's median may not differ from set A's by more than the
  bound, in either direction.

Run from the repository root:

    python3 callbench/steady.py --runs 10

Exit status 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(command, workload, seed, seconds):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    out = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run\n{out.stdout[-2000:]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    p.add_argument("--first-seed", type=int, default=1000)
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    sets = "AB"

    results = {(s, w): [] for s in sets for w in workloads}
    seed = args.first_seed
    for i in range(args.runs):
        for s in (sets if i % 2 == 0 else sets[::-1]):
            for w in workloads:
                m = run_once(bench["command"], w, seed, seconds)
                results[(s, w)].append(m)
                print(f"run {i + 1}/{args.runs} set {s} {w} seed {seed}: "
                      + " ".join(f"{k}={v:.6g}" for k, v in m.items()), file=sys.stderr)
                seed += 1

    ok = True
    for w in workloads:
        print(f"\n{w} ({args.runs} runs per set, {seconds} s each)")
        print(f"  {'metric':<18} {'set':<3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            meds = {}
            for s in sets:
                med, q1, q3, spread = summary([r[name] for r in results[(s, w)]])
                meds[s] = med
                if spread <= bound / 3:
                    verdict = "steady"
                elif spread <= bound:
                    verdict = "within bound"
                else:
                    verdict = "TOO NOISY"
                    ok = False
                print(f"  {name:<18} {s:<3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} {bound:>6}  {verdict}")
            shift = (meds["B"] - meds["A"]) / meds["A"] if meds["A"] else float("inf")
            agree = abs(shift) <= bound
            ok &= agree
            print(f"  {name:<18} B/A shift {shift:+.4f}: {'agree' if agree else 'DISAGREE'}")
    print("\nall checks pass" if ok else "\nsome checks FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

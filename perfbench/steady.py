#!/usr/bin/env python3
"""Steadiness check for the soctest benchmark.

Runs one workload k times through perfbench/run.py and prints, for every
metric, the median, the quartiles and the spread (q3 - q1) / median, plus
the share of failed operations. With --same-seed all runs use one seed and
the tool also confirms that makespan_geomean (and, with --trace 1, the node
and pivot counts) repeat exactly. --holdout SEED verifies one more run on a
seed kept out of development: it must report correct=true.

    python3 perfbench/steady.py --workload sweep --runs 10 --seconds 10
    python3 perfbench/steady.py --workload cold --runs 3 --same-seed 7 --trace 1
"""

import argparse
import json
import statistics
import subprocess
import sys

EXACT = ["makespan_geomean", "tam.exact.nodes", "ilp.bb.nodes",
         "ilp.simplex.pivots", "pack.exact.nodes", "pack.makespan_geomean"]


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--same-seed", type=int)
    ap.add_argument("--holdout", type=int)
    args = ap.parse_args()

    results = []
    for k in range(args.runs):
        seed = args.same_seed if args.same_seed is not None \
            else args.first_seed + k
        r = run(args.workload, seed, args.seconds, args.trace)
        share = r["failed"] / r["attempted"]
        print(f"run {k + 1}: seed {seed} correct={r['correct']} "
              f"attempted={r['attempted']} failed={r['failed']} "
              f"share={share:.6f}", flush=True)
        results.append(r)

    ok = all(r["correct"] for r in results)
    shares = {r["failed"] / r["attempted"] for r in results}
    if len(shares) != 1:
        print(f"FAILED SHARE VARIES: {sorted(shares)}")
        ok = False
    print(f"{'metric':32} {'unit':7} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8}")
    for name in sorted(results[0]["metrics"]):
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
            else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        unit = results[0]["metrics"][name]["unit"]
        print(f"{name:32} {unit:7} {med:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:8.4f}")
        if args.same_seed is not None and name in EXACT and \
                len(set(values)) != 1:
            print(f"  NOT REPEATED EXACTLY: {name} {values}")
            ok = False

    if args.holdout is not None:
        r = run(args.workload, args.holdout, args.seconds, args.trace)
        print(f"holdout seed {args.holdout}: correct={r['correct']} "
              f"failed={r['failed']}/{r['attempted']}")
        ok = ok and r["correct"]
    print("OK" if ok else "NOT OK")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

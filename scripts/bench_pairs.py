#!/usr/bin/env python3
"""Alternating parent/change runs of the benchmark, and the gain rule on them.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload perturb-search \\
        --seed 31 --pairs 10 [--seconds 30] [--out BENCH.json]

PARENT_DIR and CHANGE_DIR are two source checkouts.  Each pair runs
``bench/run.py --trace 0`` once in each, with the same workload, seed and run
length; the parent runs first on odd pairs and the change first on even ones.
Every run's ``correct``, ``attempted`` and ``failed`` are printed as it ends.
Then, for every end-to-end metric of ``BENCHMARK.json``, the table gives each
side's median and quartiles, how many pairs the change won (ties count for
neither side), the change of the median as a share of the parent's, the
metric's regression bound, whether the change stays within that bound, and
whether the gain rule holds: the change wins at least nine tenths of the
pairs and its median is better than the parent's by more than the distance
between the parent's quartiles.  The bound column reads "unresolved" when
the parent's quartile spread, as a share of its median, is wider than the
bound and not every change run beats every parent run: such runs cannot
tell a change within the bound from one beyond it.  Otherwise it reads
"within" or "beyond".  With ``--out PATH`` the script also writes, as one
JSON object, the workload, seed, pair count and run length, every run's
summary in pair order under ``runs``, and the table under ``rows``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

# Share of the pairs the change must win for a gain to count.
WIN_SHARE = 0.9


def run_bench(checkout: str, args) -> dict:
    """The JSON summary, the last line of stdout, of one benchmark run in ``checkout``."""
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"bench/run.py failed in {checkout} (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values) -> tuple:
    """(q1, median, q3) as statistics.quantiles gives them; one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", metavar="PARENT_DIR")
    parser.add_argument("change", metavar="CHANGE_DIR")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--out", metavar="PATH", help="write the runs and the table as JSON")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    with open(os.path.join(args.parent, "BENCHMARK.json"), encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]

    sides = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            result = run_bench(sides[side], args)
            runs[side].append(result)
            values = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.4g}"
                              for m in metrics)
            print(f"pair {pair} {side}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {values}",
                  flush=True)

    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds} s runs")
    print(f"{'metric':<18} {'parent q1/median/q3':<28} {'change q1/median/q3':<28} "
          f"{'wins':>6} {'change':>8} {'bound':>6}  {'bound check':<11} gain rule")
    rows = []
    for metric in metrics:
        name, lower_is_better = metric["name"], metric["better"] == "lower"
        old = [run["metrics"][name]["value"] for run in runs["parent"]]
        new = [run["metrics"][name]["value"] for run in runs["change"]]
        wins = sum((b < a) if lower_is_better else (b > a) for a, b in zip(old, new))
        q1, median, q3 = quartiles(old)
        c1, change_median, c3 = quartiles(new)
        gain = median - change_median if lower_is_better else change_median - median
        rule = wins >= WIN_SHARE * args.pairs and gain > q3 - q1
        share = (change_median - median) / median if median else float("nan")
        bound = metric["bound"]
        separated = max(new) < min(old) if lower_is_better else min(new) > max(old)
        worse = share if lower_is_better else -share
        if q3 - q1 > bound * abs(median) and not separated:
            check = "unresolved"
        else:
            check = "beyond" if worse > bound else "within"
        print(f"{name:<18} {q1:8.4g} {median:8.4g} {q3:8.4g}   "
              f"{c1:8.4g} {change_median:8.4g} {c3:8.4g}   "
              f"{wins:>2}/{args.pairs:<3} {share:+8.1%} {bound:6.0%}  {check:<11} "
              f"{'met' if rule else 'not met'}")
        rows.append({"metric": name, "parent": [q1, median, q3], "change": [c1, change_median, c3],
                     "wins": wins, "pairs": args.pairs, "change_share": share, "bound": bound,
                     "bound_check": check, "gain_rule": rule})
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "seed": args.seed, "pairs": args.pairs,
                       "seconds": args.seconds, "runs": runs, "rows": rows}, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

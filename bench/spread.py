"""Run-to-run spread of the benchmark's metrics.

    python3 bench/spread.py --workload identity-sweep --seeds 1 2 3 4 5
    python3 bench/spread.py --workload identity-sweep --seeds 1 --repeat 5

Runs ``bench/run.py`` once per seed (``--repeat`` times each, in sequence),
then prints for every metric its median, its quartiles and the distance
between them as a share of the median, the figure a bound is compared with.
Metrics whose spread exceeds FLAG are marked.  With ``--out`` the runs and the
table are also written as JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Spreads above this share of the median are marked.
FLAG = 0.1


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    rel = (q3 - q1) / median if median else float("inf") if q3 > q1 else 0.0
    return median, q1, q3, rel


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    runs = []
    for seed in args.seeds:
        for _ in range(args.repeat):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, check=True, timeout=900)
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, **last})
            print(f"seed {seed}: correct={last['correct']} attempted={last['attempted']} "
                  f"failed={last['failed']}", flush=True)

    table = {}
    for name, first in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        median, q1, q3, rel = spread(values)
        table[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                       "spread": rel, "min": min(values), "max": max(values)}
        mark = "  <-- over" if rel > FLAG else ""
        print(f"{name:45s} {median:12.6g} {first['unit']:6s} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {rel:.4f}{mark}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "seeds": args.seeds, "repeat": args.repeat,
                       "seconds": args.seconds, "trace": args.trace, "table": table,
                       "runs": runs}, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

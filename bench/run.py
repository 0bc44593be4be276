"""framelab benchmark: one workload, closed loop, oracle-checked reports.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload verify-ladder --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics: set-up time, job latency (mean,
p50 and tail), the cost of a cold ``python -m framelab`` call and peak
memory.  Latencies are in ``ref``, multiples of the reference kernel of
``reference.py`` timed next to each job, because the shared machine's speed
moves more between runs than the bounds allow; the same figures in ms follow
on the ``info:`` line.  ``--trace 1`` runs one pass over the jobs traced,
between two untraced passes, and prints per-layer calls and self times
instead.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it name every metric with
its unit and sample count, the environment, the jobs set aside at set-up
because they hit a known program defect, and the reason of each kind of
failed job.

The program runs from ``src/`` of the checkout, in worker processes started
with BLAS and OpenMP pinned to one thread.  Without ``src/framelab`` the
benchmark exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("verify-ladder", "identity-sweep", "perturb-search")
# Set-up is timed this many times per run, in fresh processes: half of them
# before the loop, one in the loop's own process and the rest after it.  The
# median is reported.
SETUP_SAMPLES = 7
# Every worker must be done within this many seconds of the run's start.
BUDGET_S = 170.0
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_ENV})
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def start_worker(args, mode, workdir, deadline):
    """Run one worker to completion; returns (spawn time, its result dict)."""
    result_path = os.path.join(workdir, f"result-{mode}-{time.monotonic_ns()}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode,
           "--workdir", os.path.join(workdir, mode),
           "--state", os.path.join(HERE, "_state"), "--result", result_path]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    subprocess.run(cmd, env=worker_env(), stdout=subprocess.DEVNULL, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)
    shutil.rmtree(os.path.join(workdir, mode), ignore_errors=True)
    return spawned, result


def time_setup(args, workdir, deadline):
    """Seconds from spawning a set-up worker to its first timed job."""
    spawned, result = start_worker(args, "setup", workdir, deadline)
    return result["ready"] - spawned


def end_to_end(args, workdir, deadline):
    """Set-up is timed before, during and after the loop run, and the median kept."""
    setups = [time_setup(args, workdir, deadline) for _ in range(SETUP_SAMPLES // 2)]
    spawned, result = start_worker(args, "loop", workdir, deadline)
    setups.append(result["ready"] - spawned)
    while len(setups) < SETUP_SAMPLES:
        setups.append(time_setup(args, workdir, deadline))
    tail = result["tail_percentile"]
    runs = f"{result['jobs']} runs of {result['jobs_per_cycle']} jobs in {result['cycles']} passes"
    ref = result["job_ref"]
    rows = [
        ("setup_s", statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        ("job_ref.mean", ref["mean"], "ref", f"mean over jobs of each one's median; {runs}"),
        ("job_ref.p50", ref["p50"], "ref", f"p50 over jobs of each one's median; {runs}"),
        ("job_ref.tail", ref["tail"], "ref", f"p{tail:g} over jobs of each one's median; {runs}"),
        ("cli_cold_ref.p50", result["cli_cold_ref"], "ref",
         f"median of {result['cold_runs']} cold runs of `{result['cold_command']}`"),
        ("peak_rss_mb", result["peak_rss_mb"], "MB", "workload process"),
    ]
    raw = result["job_ms"]
    info = {"setup_s": setups, "job_ms": raw, "jobs_per_s": 1e3 / raw["mean"],
            "cli_cold_ms": result["cli_cold_ms"],
            "kernel_ms": dict(zip(("median", "min", "runs"), result["kernel_ms"]))}
    return rows, result, info


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    return "B" if name == "documents.bytes_written" else "count"


def per_layer(args, workdir, deadline):
    _, result = start_worker(args, "trace", workdir, deadline)
    jobs = result["metrics"]["trace.jobs"]
    rows = [(name, value, layer_unit(name), f"one pass of {jobs} jobs")
            for name, value in result["metrics"].items()]
    info = {name: result[name] for name in ("spans", "untraced_s", "traced_s", "span_total_s")}
    return rows, result, info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "framelab", "__init__.py")):
        print(f"no framelab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    # A terminated run raises here instead, so the running worker is killed too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + BUDGET_S
    workdir = os.path.join(HERE, "_work", f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(workdir)
    try:
        collect = per_layer if args.trace else end_to_end
        rows, result, info = collect(args, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = {name: worker_env()[name] for name in THREAD_ENV}
    print("env: " + json.dumps({
        "python": platform.python_version(), "numpy": result["numpy"],
        "framelab": result["framelab"], "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "worker_cpu": result["cpu"],
        "git_sha": git_sha(),
        "workload_threads": env, "workload": args.workload, "seed": args.seed}))
    for name, value, unit, note in rows:
        print(f"{name} = {value:.6g} {unit} ({note})")
    print("info: " + json.dumps(info))
    for name, (calls, inclusive, own) in result.get("span_table", {}).items():
        print(f"span {name}: calls={calls} s={inclusive:.6g} self_s={own:.6g}")
    for defect, keys in sorted(result["defects"].items()):
        print(f"known defect {defect}: {len(keys)} jobs set aside (e.g. {keys[0]})")
    for reason, example in sorted(result["reasons"].items()):
        print(f"failed: {reason} (e.g. {example})")
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"] + result["cold_attempted"],
        "failed": result["failed"] + result["cold_failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in rows},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload process: set up, run the closed loop or the traced pass, report.

Started by ``run.py`` with BLAS threads pinned in its environment; it pins
itself, and so the cold runs it starts, to one CPU.  Writes one JSON result
file and nothing to stdout.  Every mode first builds the inputs, sets aside
the jobs that hit a known program defect, and runs one warm-up job.  Modes:

setup   stop there (times set-up);
loop    closed loop: one client runs whole passes over the job list, each job
        after the previous one returns, until ``--seconds`` have passed and
        at least MIN_CYCLES passes are done, with cold ``python -m framelab``
        runs of one cheap job spread over the loop, and the reference kernel
        timed between jobs;
trace   the same pass untraced, traced, and untraced again, for the
        per-layer metrics and the tracing overhead.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import framelab
import reference
import spans
import workloads

# Cold CLI runs per timed run, spread evenly over the loop.
COLD_RUNS = 20
# Minimum whole passes over the jobs per timed run; sets the sample count the
# latency tail is taken from.
MIN_CYCLES = 3
# Percentiles the latency tail may be read at: the highest one with at least
# TAIL_BEYOND jobs above it, or the slowest job (100) when there are too few.
TAIL_PERCENTILES = (75.0, 90.0, 95.0, 99.0)
TAIL_BEYOND = 10
# The reference kernel runs once per this many seconds of jobs timed.
REF_EVERY_S = 0.02
# Largest relative gap allowed between the span total of the traced pass and
# its jobs' wall time timed from outside.
TRACE_CLOCK_TOL = 0.01


def percentile(sorted_values, q):
    """Linear-interpolated percentile of an ascending list."""
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(samples: int) -> float:
    fits = [q for q in TAIL_PERCENTILES if samples * (1 - q / 100.0) >= TAIL_BEYOND]
    return max(fits) if fits else 100.0


class Ledger:
    """Outcome of every job run: failures, reasons, and stdout digests.

    ``attempted`` and ``failed`` count in-process job runs, cold runs apart.
    A failure is wrong unless it is one of the workloads' known defects.
    ``defects`` holds the jobs set aside at set-up, by defect name.
    """

    def __init__(self):
        self.defects = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.cold_attempted = 0
        self.cold_failed = 0
        self.reasons = {}
        self.digests = {}

    def record(self, job, outcome):
        code, text, error = outcome
        self.attempted += 1
        if error is None:
            error = job.check(code, text)
            digest = hashlib.sha256(text.encode()).hexdigest()
            first = self.digests.setdefault(job.key, digest)
            if first != digest:
                error = "report bytes differ between repeats"
        if error is not None:
            known = workloads.known_defect(job.key, error) is not None
            self.failed += 1
            self.wrong += not known
            kind = "known defect" if known else "wrong"
            self.reasons.setdefault(f"{kind}: {error.split(':')[0][:80]}", job.key)

    def compare_saved(self, path):
        """Check digests against an earlier run of the same code and seed."""
        if not os.path.exists(path):
            tmp = f"{path}.{os.getpid()}"
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(self.digests, handle, sort_keys=True)
            os.replace(tmp, path)
            return
        with open(path, encoding="utf-8") as handle:
            saved = json.load(handle)
        for key, digest in self.digests.items():
            if key in saved and saved[key] != digest:
                self.failed += 1
                self.wrong += 1
                self.reasons.setdefault("report bytes differ from an earlier run", key)


def execute(job):
    """(exit code, report text, error) of one job; exceptions are failures."""
    try:
        code, text = job.call()
    except Exception as exc:  # any escape from the program is a failed job
        return None, "", f"uncaught {type(exc).__name__}: {exc}"
    except SystemExit as exc:
        return None, "", f"SystemExit {exc.code}"
    return code, text, None


def set_aside_defects(work, ledger):
    """Run once, untimed, each job a known program defect may hit, and take
    the jobs that do hit one out of the timed list.  A job that fails in any
    other way stays, so the timed runs report it."""
    timed = []
    for job in work.jobs:
        if workloads.may_hit_defect(job.key):
            code, text, error = execute(job)
            if error is None:
                error = job.check(code, text)
            defect = error and workloads.known_defect(job.key, error)
            if defect:
                ledger.defects.setdefault(defect, []).append(job.key)
                continue
        timed.append(job)
    work.jobs = timed


def code_digest(root) -> str:
    """Digest of the benchmark and program sources, to key saved report digests."""
    h = hashlib.sha256()
    for folder in (os.path.join(root, "bench"), os.path.join(root, "src", "framelab")):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as handle:
                    h.update(name.encode() + handle.read())
    return h.hexdigest()[:16]


def cold_run(argv, expected_text, ledger):
    """Wall time of `python -m framelab <argv>` in a fresh process."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "framelab", *argv],
                          capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - t0
    ledger.cold_attempted += 1
    if proc.returncode == 2 or proc.stdout != expected_text:
        ledger.cold_failed += 1
        ledger.wrong += 1
        ledger.reasons.setdefault("cold run report differs from in-process", " ".join(argv))
    return elapsed


class Scaled:
    """Job times as multiples of the reference kernel timed around them.

    Once the jobs timed since the kernel last ran add up to REF_EVERY_S, the
    kernel runs once per REF_EVERY_S of them, so it takes about a tenth of
    the loop wherever the loop is.  Each of those jobs is divided by the
    mean kernel time over that block of kernel runs and the block before.
    """

    def __init__(self):
        self.kernel_s = []
        self.block = [reference.kernel_s()]
        self.pending = []
        self.pending_s = 0.0
        self.raw = {}
        self.ref = {}

    def add(self, key, seconds):
        self.raw.setdefault(key, []).append(seconds)
        self.pending.append((key, seconds))
        self.pending_s += seconds
        if self.pending_s >= REF_EVERY_S:
            self.settle()

    def settle(self):
        """Run the next block of kernel runs and scale the jobs before it."""
        before = self.block
        self.block = [reference.kernel_s()
                      for _ in range(max(1, round(self.pending_s / REF_EVERY_S)))]
        self.kernel_s += self.block
        unit = statistics.fmean(before + self.block)
        for key, seconds in self.pending:
            self.ref.setdefault(key, []).append(seconds / unit)
        self.pending.clear()
        self.pending_s = 0.0


def loop_mode(args, work, ledger):
    """Closed loop over whole passes, with cold runs spread over the loop.

    The machine's speed changes for seconds at a time under other tenants'
    load, so every job is also timed in units of the reference kernel run
    next to it, and each job's figure is the median over its repeats in
    the run; the latency figures are then taken over the jobs.  Every
    repeat is run, checked and hashed.
    """
    order_rng = np.random.Generator(np.random.PCG64(args.seed))
    expected = workloads.run_cli(work.cold_argv)[1]
    scaled = Scaled()
    colds = 0

    def take_cold():
        nonlocal colds
        scaled.add("cold", cold_run(work.cold_argv, expected, ledger))
        colds += 1

    passes = 0
    start = time.perf_counter()
    while passes < MIN_CYCLES or time.perf_counter() - start < args.seconds:
        for index in order_rng.permutation(len(work.jobs)):
            job = work.jobs[index]
            t0 = time.perf_counter()
            outcome = execute(job)
            scaled.add(job.key, time.perf_counter() - t0)
            ledger.record(job, outcome)
            if colds < COLD_RUNS and time.perf_counter() - start >= colds * args.seconds / COLD_RUNS:
                take_cold()
        passes += 1
    while colds < COLD_RUNS:
        take_cold()
    scaled.settle()
    cold_ref = statistics.median(scaled.ref.pop("cold"))
    cold_ms = 1e3 * statistics.median(scaled.raw.pop("cold"))

    def figures(per_job, scale):
        """Mean, p50 and tail over jobs of each job's median over its runs."""
        jobs = sorted(scale * statistics.median(v) for v in per_job.values())
        tail_q = tail_percentile(len(jobs))
        return {"mean": statistics.fmean(jobs), "p50": percentile(jobs, 50.0),
                "tail": percentile(jobs, tail_q)}, tail_q

    ref, tail_q = figures(scaled.ref, 1.0)
    raw_ms, _ = figures(scaled.raw, 1e3)
    return {
        "jobs": sum(map(len, scaled.raw.values())),
        "cycles": passes,
        "jobs_per_cycle": len(work.jobs),
        "job_ref": ref,
        "job_ms": raw_ms,
        "tail_percentile": tail_q,
        "kernel_ms": [1e3 * statistics.median(scaled.kernel_s), 1e3 * min(scaled.kernel_s),
                      len(scaled.kernel_s)],
        "cli_cold_ref": cold_ref,
        "cli_cold_ms": cold_ms,
        "cold_runs": colds,
        "cold_command": "python -m framelab " + " ".join(work.cold_argv),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def timed_pass(work, order, ledger, tracer=None):
    """Summed wall time of the jobs of one pass in the given order, each timed
    from outside any span, and the report of every job."""
    reports = []
    jobs_s = 0.0
    for job_id, index in enumerate(order):
        job = work.jobs[index]
        t0 = time.perf_counter()
        if tracer is None:
            outcome = execute(job)
        else:
            outcome = tracer.run_job(job_id, lambda: execute(job))
        jobs_s += time.perf_counter() - t0
        ledger.record(job, outcome)
        reports.append(outcome[1] if outcome[2] is None else "")
    return jobs_s, reports


# Name-level per-layer metrics: (metric, kind, span name).
NAMED = [
    ("cli.build_parser.s", "s", "cli.build_parser"),
    ("cli.main.self_s", "self", "cli.main"),
    ("documents.load_document.s", "s", "documents.load_document"),
    ("documents.to_system.s", "s", "documents.to_system"),
    ("documents.save_document.s", "s", "documents.save_document"),
    ("documents.canonical_json.s", "s", "documents.canonical_json"),
    ("frame_ops.verify_k_g_fusion.calls", "calls", "frame_ops.verify_k_g_fusion"),
    ("frame_ops.verify_k_g_fusion.per_job", "per_job", "frame_ops.verify_k_g_fusion"),
    ("frame_ops.verify_k_g_fusion.s", "s", "frame_ops.verify_k_g_fusion"),
    ("frame_ops.optimal_bounds.calls", "calls", "frame_ops.optimal_bounds"),
    ("frame_ops.restricted_inverse.s", "s", "frame_ops.restricted_inverse"),
    ("numerics.douglas_factor.calls", "calls", "numerics.douglas_factor"),
    ("numerics.douglas_factor.s", "s", "numerics.douglas_factor"),
    ("duality.construct_q_dual.s", "s", "duality.construct_q_dual"),
    ("duality.canonical_dual.s", "s", "duality.canonical_dual"),
    ("duality.verify_kgf_dual.s", "s", "duality.verify_kgf_dual"),
    ("duality.qdual_bound_corollary.s", "s", "duality.qdual_bound_corollary"),
    ("oracle.oracle_payload.s", "s", "oracle.oracle_payload"),
    ("oracle.reference_lower_bound.calls", "calls", "oracle.reference_lower_bound"),
    ("duality.check_dual_subset_identity.calls", "calls", "duality.check_dual_subset_identity"),
    ("duality.check_dual_subset_identity.s", "s", "duality.check_dual_subset_identity"),
    ("duality.check_parseval_subset_identity.calls", "calls",
     "duality.check_parseval_subset_identity"),
    ("duality.check_parseval_subset_identity.s", "s", "duality.check_parseval_subset_identity"),
    ("duality.check_three_quarters_bound.calls", "calls", "duality.check_three_quarters_bound"),
    ("duality.check_three_quarters_bound.s", "s", "duality.check_three_quarters_bound"),
    ("duality.partial_operator.calls", "calls", "duality.partial_operator"),
    ("duality.complement_residual.calls", "calls", "duality.complement_residual"),
    ("duality.parsevalize.s", "s", "duality.parsevalize"),
    ("perturbation.perturb_hypothesis.s", "s", "perturbation.perturb_hypothesis"),
    ("perturbation.verify_perturbation_theorem.s", "s",
     "perturbation.verify_perturbation_theorem"),
    ("frame_ops.frame_operator.calls", "calls", "frame_ops.frame_operator"),
    ("frame_ops.frame_operator.per_job", "per_job", "frame_ops.frame_operator"),
    ("frame_ops.synthesis.calls", "calls", "frame_ops.synthesis"),
    ("model.projection.calls", "calls", "model.projection"),
    ("numerics.operator_norm.calls", "calls", "numerics.operator_norm"),
    ("numerics.psd_check.calls", "calls", "numerics.psd_check"),
    ("numerics.pinv.calls", "calls", "numerics.pinv"),
] + [(f"linalg.{name}.calls", "calls", f"linalg.{name}") for name in spans.LINALG]

IDENTITY_CHECKS = {"duality.check_dual_subset_identity",
                   "duality.check_parseval_subset_identity",
                   "duality.check_three_quarters_bound"}


def trace_mode(args, work, ledger):
    """One pass traced, between two untraced passes of the same jobs in the same
    order; the faster untraced pass is the baseline of the tracing overhead.

    The per-layer self times plus ``unattributed_s`` must add up to the traced
    jobs' wall time as timed around each job from outside the tracer, and
    ``trace_coverage_frac`` is the share of it spent inside framelab's public
    functions and the linalg entry points.
    """
    order = np.random.Generator(np.random.PCG64(args.seed)).permutation(len(work.jobs))
    before_s, reports = timed_pass(work, order, ledger)
    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        traced_s, traced_reports = timed_pass(work, order, ledger, tracer)
    finally:
        spans.uninstall(patches)
    untraced_s = min(before_s, timed_pass(work, order, ledger)[0])

    summary = spans.Summary(tracer)
    totals = summary.layers()
    jobs = len(order)
    metrics = {}
    for layer, (calls, self_s) in totals["layers"].items():
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.self_s"] = self_s
    metrics["unattributed_s"] = totals["unattributed_s"]
    metrics["traced_wall_s"] = traced_s
    attributed = sum(s for _, s in totals["layers"].values())
    accounted = attributed + totals["unattributed_s"]
    if abs(accounted - traced_s) > TRACE_CLOCK_TOL * traced_s:
        raise RuntimeError(f"layer self times and unattributed_s add to {accounted} s, "
                           f"the traced jobs took {traced_s} s")
    metrics["trace_coverage_frac"] = attributed / traced_s
    metrics["trace_overhead_frac"] = (traced_s - untraced_s) / untraced_s
    metrics["trace.jobs"] = jobs
    metrics["known_defect.jobs"] = sum(map(len, ledger.defects.values()))
    metrics["checks_per_s"] = sum(map(workloads.sweep_pairs, reports)) / untraced_s
    for metric, kind, name in NAMED:
        if kind == "calls":
            metrics[metric] = summary.calls(name)
        elif kind == "per_job":
            metrics[metric] = summary.calls(name) / jobs
        elif kind == "s":
            metrics[metric] = summary.inclusive_s(name)
        else:
            metrics[metric] = summary.self_s(name)
    metrics["documents.bytes_written"] = sum(
        os.path.getsize(p) for text in traced_reports for p in workloads.written_paths(text))
    bounds = summary.calls("oracle.reference_lower_bound")
    metrics["oracle.eigvalsh_per_bound"] = (
        summary.calls_within("linalg.eigvalsh", {"oracle.reference_lower_bound"}) / bounds
        if bounds else 0.0)
    checks = sum(summary.calls(name) for name in IDENTITY_CHECKS)
    metrics["duality.frame_operator_per_check"] = (
        summary.calls_within("frame_ops.frame_operator", IDENTITY_CHECKS) / checks
        if checks else 0.0)
    probes = [workloads.probes_tested(text) for text in traced_reports]
    metrics["perturbation.probes_per_job"] = sum(probes) / max(1, sum(p > 0 for p in probes))
    table = {name: [summary.calls(name), summary.inclusive_s(name), summary.self_s(name)]
             for name in sorted(summary.by_name)}
    return {"metrics": metrics, "spans": len(tracer.start), "span_table": table,
            "untraced_s": untraced_s, "traced_s": traced_s, "span_total_s": accounted}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "loop", "trace"))
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--state", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    # The jobs, the reference kernel and the cold runs all run on one CPU, so
    # the kernel measures the speed of the CPU the jobs ran on.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    os.makedirs(args.workdir, exist_ok=True)
    os.chdir(args.workdir)
    work = workloads.WORKLOADS[args.workload](args.seed)
    ledger = Ledger()
    set_aside_defects(work, ledger)
    execute(work.jobs[0])
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    result = {"ready": ready, "numpy": np.__version__, "framelab": framelab.__version__,
              "cpu": cpu, "defects": ledger.defects}
    if args.mode == "loop":
        result.update(loop_mode(args, work, ledger))
    elif args.mode == "trace":
        result.update(trace_mode(args, work, ledger))
    if args.mode != "setup":
        os.makedirs(args.state, exist_ok=True)
        saved = os.path.join(args.state, f"{args.workload}-seed{args.seed}-{code_digest(root)}.json")
        ledger.compare_saved(saved)
        result.update(attempted=ledger.attempted, failed=ledger.failed,
                      cold_attempted=ledger.cold_attempted, cold_failed=ledger.cold_failed,
                      wrong=ledger.wrong, reasons=ledger.reasons)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()

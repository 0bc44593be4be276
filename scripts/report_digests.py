#!/usr/bin/env python3
"""Compare the report of every benchmark job between two source checkouts.

    python3 scripts/report_digests.py PARENT_DIR CHANGE_DIR \\
        [--workloads perturb-search ...] [--seeds 1 5 17]

PARENT_DIR and CHANGE_DIR are two source checkouts.  For each workload and
seed, each checkout runs in its own process, with its own ``src`` and
``bench`` on the path, one BLAS thread, and a fresh temporary directory as
the working directory: it builds the workload from the seed as
``bench/run.py`` does and runs every job once, in order.  A job's digest is
the sha256 of its exit code and its report text (or of the exception that
escaped it).  For each checkout the script prints the job count, the line
total of its ``src/framelab/*.py`` and the jobs whose check failed, then the
keys of the jobs whose digests differ between the two.  Under each such key
it names what moved: the exit code, and the dotted fields of the JSON report
(``hypothesis.worst_violation``) whose values differ, with the parent's and
the change's value; a list is one value, and a report that is not a JSON
object is one field, ``(text)``.  Last it prints each ``src/framelab/*.py``
file whose line count differs between the checkouts, with both counts.  It
exits 1 when any digest or job key differs, and 0 otherwise.
The workloads default to those ``BENCHMARK.json`` of PARENT_DIR lists.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import subprocess
import sys
import tempfile

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Run in the checkout's process: one pass over the jobs, one JSON line out.
CHILD = r"""
import hashlib, json, sys
import workloads

work = workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
digests, failed, reports = {}, {}, {}
for job in work.jobs:
    try:
        code, text = job.call()
        error = job.check(code, text)
    except (Exception, SystemExit) as exc:
        code, text = None, f"uncaught {type(exc).__name__}: {exc}"
        error = text
    digests[job.key] = hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()
    reports[job.key] = [code, text]
    if error is not None:
        failed[job.key] = error
print(json.dumps({"digests": digests, "failed": failed, "reports": reports}))
"""


def run_checkout(checkout: str, workload: str, seed: int) -> dict:
    """Digests and failed checks of one pass over a workload in ``checkout``."""
    checkout = os.path.abspath(checkout)
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_ENV})
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(checkout, "src"), os.path.join(checkout, "bench")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    with tempfile.TemporaryDirectory(prefix="report-digests-") as workdir:
        proc = subprocess.run([sys.executable, "-c", CHILD, workload, str(seed)],
                              cwd=workdir, env=env, capture_output=True, text=True,
                              timeout=1800)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed in {checkout} "
                 f"(exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report_fields(text: str) -> dict:
    """A report as ``{dotted field: value}``, with lists as values; text that
    is not a JSON object is the one field ``(text)``."""
    try:
        report = json.loads(text)
    except ValueError:
        report = None
    if not isinstance(report, dict):
        return {"(text)": text}
    fields = {}

    def walk(value, name):
        if isinstance(value, dict) and value:
            for key, item in value.items():
                walk(item, f"{name}.{key}" if name else key)
        else:
            fields[name] = value
    walk(report, "")
    return fields


def moved(old, new) -> list:
    """``(name, parent value, change value)`` of what differs between two
    ``[exit code, report text]`` pairs of one job."""
    rows = [("(exit code)", old[0], new[0])] if old[0] != new[0] else []
    old_fields, new_fields = report_fields(old[1]), report_fields(new[1])
    for name in sorted(old_fields.keys() | new_fields.keys()):
        before, after = old_fields.get(name, "(absent)"), new_fields.get(name, "(absent)")
        if before != after:
            rows.append((name, before, after))
    return rows


def package_lines(checkout: str) -> dict:
    """Line count of each of the checkout's ``src/framelab/*.py``, as ``wc -l``
    counts it, keyed by file name."""
    counts = {}
    for path in glob.glob(os.path.join(checkout, "src", "framelab", "*.py")):
        with open(path, "rb") as handle:
            counts[os.path.basename(path)] = handle.read().count(b"\n")
    return counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", metavar="PARENT_DIR")
    parser.add_argument("change", metavar="CHANGE_DIR")
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    args = parser.parse_args()
    if not args.workloads:
        with open(os.path.join(args.parent, "BENCHMARK.json"), encoding="utf-8") as handle:
            args.workloads = [w["name"] for w in json.load(handle)["workloads"]]

    files = {"parent": package_lines(args.parent), "change": package_lines(args.change)}
    lines = {side: sum(counts.values()) for side, counts in files.items()}
    differing = 0
    for workload in args.workloads:
        for seed in args.seeds:
            runs = {}
            for side, checkout in (("parent", args.parent), ("change", args.change)):
                runs[side] = run_checkout(checkout, workload, seed)
                failed = runs[side]["failed"]
                print(f"{workload} seed {seed} {side}: {len(runs[side]['digests'])} jobs, "
                      f"{len(failed)} failed checks, {lines[side]} lines in src/framelab/*.py",
                      flush=True)
                for key, reason in failed.items():
                    print(f"  failed check {key}: {reason}")
            old, new = runs["parent"]["digests"], runs["change"]["digests"]
            keys = sorted(key for key in old.keys() | new.keys() if old.get(key) != new.get(key))
            for key in keys:
                print(f"  differs: {key}")
                if key in old and key in new:
                    for name, before, after in moved(runs["parent"]["reports"][key],
                                                     runs["change"]["reports"][key]):
                        print(f"    {name}: {before!r} -> {after!r}")
                else:
                    print(f"    run only in the {'parent' if key in old else 'change'}")
            differing += len(keys)
    print(f"{differing} differing job reports")
    for name in sorted(files["parent"].keys() | files["change"].keys()):
        before, after = (files[side].get(name, "(absent)") for side in ("parent", "change"))
        if before != after:
            print(f"  src/framelab/{name}: {before} -> {after} lines")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())

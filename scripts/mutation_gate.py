#!/usr/bin/env python3
"""Apply each listed mutation of the decision code alone and check the tests catch it.

Run from the repository root:

    python3 scripts/mutation_gate.py

Each entry of ``MUTATIONS`` names a file, one exact source line (with its
indentation), the line that replaces it, and the tests that must fail under
the change.  For every entry the script copies ``src``, ``tests``,
``scripts`` and ``pyproject.toml`` (so pytest runs with the tier-1 settings,
warnings turned into errors among them) to a temporary directory, replaces
the line there, runs only the entry's tests with pytest, and prints the
mutation as ``caught`` when every listed test fails and ``survived``
otherwise.  A test id without a parameter list counts as failed when any of
its cases fails.  First, the same tests run on an unmutated copy and must
all pass.  The exit status is 0 when every mutation is caught, 1 otherwise,
and 2 when an entry's line is not found exactly once or its replacement does
not compile.

A surviving mutation is a gap in the tests: close it with a test that fails
under the mutation, never by deleting the entry.  The gate runs the test
suite once per entry, so it is kept out of the tier-1 run.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "scripts")


class Mutation(NamedTuple):
    name: str
    path: str
    line: str
    replacement: str
    tests: tuple


PERTURBATION = "src/framelab/perturbation.py"
NUMERICS = "src/framelab/numerics.py"
PERTURBATION_TESTS = "tests/test_perturbation.py"

MUTATIONS = (
    # the sqrt-sum bound stage forms every subset holding an undecided pair; gathering
    # only the subsets undecided at every probe of the block drops pairs
    Mutation(
        "column-gather-all", PERTURBATION,
        "        columns = np.flatnonzero(undecided(bounds).any(axis=0))",
        "        columns = np.flatnonzero(undecided(bounds).all(axis=0))",
        (f"{PERTURBATION_TESTS}::test_the_bound_stage_changes_no_verdict",
         f"{PERTURBATION_TESTS}::test_search_verdicts_match_the_pinned_ones")),
    # a lone gathered column is repeated, since column_norms sums a width-1 array in
    # another order
    Mutation(
        "lone-column-not-repeated", PERTURBATION,
        "        weights = weights[:, np.repeat(columns, 2) if columns.size == 1 else columns]",
        "        weights = weights[:, columns]",
        (f"{PERTURBATION_TESTS}::test_a_block_that_keeps_one_subset_keeps_its_bits",)),
    Mutation(
        "within-scale-flipped", NUMERICS,
        "    if d_hi <= tol.for_scale(m_lo):",
        "    if d_hi >= tol.for_scale(m_lo):",
        ("tests/test_norm_bracket.py::test_within_scale_gives_the_svd_verdict",)),
    Mutation(
        "within-relative-flipped", NUMERICS,
        "    return residual <= tol.for_scale(1.0) * scale",
        "    return residual >= tol.for_scale(1.0) * scale",
        ("tests/test_numerics.py::test_threshold_verdicts_have_the_bits_of_their_inline_forms",)),
    Mutation(
        "at-most-flipped", NUMERICS,
        "    return value <= _shifted(bound, scale, 1.0, tol)",
        "    return value >= _shifted(bound, scale, 1.0, tol)",
        ("tests/test_numerics.py::test_threshold_verdicts_have_the_bits_of_their_inline_forms",)),
    Mutation(
        "at-least-flipped", NUMERICS,
        "    return value >= _shifted(bound, scale, -1.0, tol)",
        "    return value <= _shifted(bound, scale, -1.0, tol)",
        ("tests/test_numerics.py::test_threshold_verdicts_have_the_bits_of_their_inline_forms",)),
    # rounding_bound keeps only its underflow constant
    Mutation(
        "rounding-allowance-dropped", NUMERICS,
        "    bound = np.multiply(unit / (1.0 - unit), magnitude)",
        "    bound = np.multiply(0.0, magnitude)",
        ("tests/test_numerics.py::test_rounding_bound_is_gamma_n_times_the_magnitude_plus_the_"
         "underflow_allowance",
         f"{PERTURBATION_TESTS}::test_every_gap_is_at_most_its_bound",
         "tests/test_subset_sweeps.py::test_the_complement_identity_is_the_coupling_defect_at_"
         "every_subset")),
    # T-sqsum's exact test checks R kk* - S_delta >= 0, not its negative
    Mutation(
        "square-sum-exact-test-sign", PERTURBATION,
        "        holds, w, v = psd_eig(-_witness(base, family, k, params, range(base.size)), tol)",
        "        holds, w, v = psd_eig(_witness(base, family, k, params, range(base.size)), tol)",
        (f"{PERTURBATION_TESTS}::test_square_sum_verdict_is_the_exact_spectral_test",)),
)


def run_tests(root: Path, tests) -> set:
    """The node ids that failed or errored among ``tests``, run by pytest in ``root``."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests],
        cwd=root, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1"))
    return {line.split()[1] for line in proc.stdout.splitlines()
            if line.startswith(("FAILED ", "ERROR "))}


def failed(test: str, failures: set) -> bool:
    return any(f == test or f.startswith(test + "[") for f in failures)


def mutate(root: Path, mutation: Mutation) -> None:
    """Replace the mutation's line in the copy at ``root``; exit 2 when it cannot."""
    path = root / mutation.path
    lines = path.read_text(encoding="utf-8").split("\n")
    hits = [i for i, line in enumerate(lines) if line == mutation.line]
    if len(hits) != 1:
        sys.exit(f"{mutation.name}: line found {len(hits)} times in {mutation.path}")
    lines[hits[0]] = mutation.replacement
    text = "\n".join(lines)
    try:
        compile(text, str(path), "exec")
    except SyntaxError as exc:
        sys.exit(f"{mutation.name}: replacement does not compile: {exc}")
    path.write_text(text, encoding="utf-8")


def main() -> int:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        for top in COPIED:
            shutil.copytree(ROOT / top, clean / top, ignore=ignore)
        shutil.copyfile(ROOT / "pyproject.toml", clean / "pyproject.toml")
        baseline = run_tests(clean, sorted({t for m in MUTATIONS for t in m.tests}))
        if baseline:
            print("tests fail without a mutation:", *sorted(baseline), sep="\n  ")
            return 1
        survived = []
        for mutation in MUTATIONS:
            copy = Path(tmp) / mutation.name
            shutil.copytree(clean, copy)
            mutate(copy, mutation)
            failures = run_tests(copy, mutation.tests)
            missed = [t for t in mutation.tests if not failed(t, failures)]
            print(f"{'survived' if missed else 'caught':8}  {mutation.name}", flush=True)
            for test in missed:
                print(f"          passed: {test}")
            if missed:
                survived.append(mutation.name)
            shutil.rmtree(copy)
    print(f"{len(MUTATIONS) - len(survived)} caught, {len(survived)} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())

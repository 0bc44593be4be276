"""Shared helpers: committed-data loaders and frequently used fixtures."""

import json
from pathlib import Path

import numpy as np
import pytest

from framelab import (
    GFusionSystem,
    HilbertSpace,
    LocalOperator,
    ToleranceProfile,
    WeightedSubspace,
    cli,
    duality,
    fixture,
    frame_ops,
    perturbation,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = Path(__file__).resolve().parent / "data"
FIXTURE_DIR = REPO_ROOT / "src" / "framelab" / "fixtures"


def load_suite(name):
    return json.loads((DATA_DIR / name).read_text(encoding="utf-8"))


def load_sidecar(fixture_name):
    stem = fixture_name.lower().replace("-", "_")
    path = FIXTURE_DIR / (stem + ".oracle.json")
    return json.loads(path.read_text(encoding="utf-8"))


def decode(rows, complex_field):
    """Matrix entries as stored: floats, or [re, im] pairs when complex."""
    if complex_field:
        return np.array([[complex(v[0], v[1]) for v in row] for row in rows])
    return np.array([[float(v) for v in row] for row in rows], dtype=float)


def decode_case_matrix(case, key):
    return decode(case[key], case["field"] == "complex")


def count_calls(monkeypatch, module, name):
    """The argument tuples of every call to ``module.name``, from any framelab module.

    Counted on the uncached workers (``_analyze``, ``_q_dual_forms``), this
    counts the work done, not the entries into the memoized public functions.
    """
    real = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for holder in (frame_ops, duality, perturbation, cli):
        if getattr(holder, name, None) is real:
            monkeypatch.setattr(holder, name, counting)
    return calls


@pytest.fixture()
def linalg_calls(monkeypatch):
    """Counts, by name, of the ``np.linalg`` svd, eigvalsh and pinv calls the test makes.

    framelab looks these up on ``np.linalg`` at each call, so every module's
    calls are counted.
    """
    counts = dict.fromkeys(("svd", "eigvalsh", "pinv"), 0)

    def counting(name, real):
        def call(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return call

    for name in counts:
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    return counts


def thin_direction_system(eps):
    """One member on R^2 with W = R^2 and L = diag(1, eps): for eps > 0 an I-frame with A = eps^2."""
    member = (WeightedSubspace(np.eye(2), 1.0), LocalOperator(np.diag([1.0, eps])))
    return GFusionSystem(HilbertSpace("real", 2), (member,))


def subset_rows(size, subsets):
    """The boolean (subsets, size) rows the subset sweeps take."""
    rows = np.zeros((len(subsets), size), dtype=bool)
    for row, subset in enumerate(subsets):
        rows[row, list(subset)] = True
    return rows


def fix_r_names():
    return sorted(p.name[:-5].upper().replace("_", "-")
                  for p in FIXTURE_DIR.glob("fix_r*.json")
                  if not p.name.endswith(".oracle.json"))


@pytest.fixture(scope="session")
def tol():
    return ToleranceProfile()


@pytest.fixture(scope="session")
def fix_a():
    return fixture("FIX-A")


@pytest.fixture(scope="session")
def fix_i():
    return fixture("FIX-I")

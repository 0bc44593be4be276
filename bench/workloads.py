"""Seeded inputs, jobs and report checks for the three benchmark workloads.

Every workload is a fixed list of jobs built once from the seed.  A job is
one call of a public framelab entry point: a CLI subcommand through
``framelab.cli.main(argv)`` with stdout captured, or a library routine whose
result is rendered as canonical JSON.  Each job carries a check that compares
its report with references computed at set-up by ``framelab.oracle`` (which
builds everything from raw document lists, independently of the code under
test) or with facts the inputs guarantee.

Workloads, and why each was chosen:

verify-ladder
    Many short jobs on a ladder of dims 4/8/16 x 3/6/10 members, real and
    complex, plus the packaged fixtures; each document carries the targets
    k, 1e-3*k and 1e3*k.  Time goes to parsing and rendering, argparse,
    repeated base verification and the oracle bisection in ``gen``; no
    subset sweep runs.  Writes (``gen``, ``dual --out``) sit beside reads.
identity-sweep
    ``identities`` on dims 6-10 with 4-7 members (16-128 exhaustive subsets)
    and ``identities --parsevalize`` at 4-6 members: the per-(subset,
    probe) path in ``duality`` dominates, and the member ladder shows how it
    grows.  Larger parsevalized sweeps take seconds each, too few repeats
    per run to time them steadily on a shared machine.
perturb-search
    ``perturb`` in all four modes at 6/10/12/14 members (63/1023/4095
    exhaustive subsets, 512 sampled past 12), against a small and a large
    seeded relative perturbation, so that the vectorized subset sweep in
    ``perturbation`` runs both alone and followed by the theorem check.  At
    12 members only the large one runs, for the same reason.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from framelab import cli, documents, oracle, transforms
from framelab.documents import FrameDocument
from framelab.model import BoundedOperator
from framelab.numerics import PreconditionError

# Relative agreement required between a report's optimal bounds and the
# oracle: the margin ``optimal_bounds`` certifies.
REL_TOL = 1e-6
# Scales of the three targets every verify-ladder document carries.
TARGETS = {"k": 1.0, "k_milli": 1e-3, "k_kilo": 1e3}

LADDER_DIMS = (4, 8, 16)
LADDER_MEMBERS = (3, 6, 10)
IDENTITY_TRIALS = 5
# (dim, members): a member ladder at dim 6 and a dimension ladder at 5 members.
IDENTITY_SIZES = ((6, 4), (6, 5), (6, 6), (6, 7), (8, 5), (10, 5))
# Sizes that also run with --parsevalize.
PARSEVALIZED_SIZES = ((6, 4), (6, 5), (6, 6))
PERTURB_DIM = 6
PERTURB_MEMBERS = (6, 10, 12, 14)
# Relative perturbation sizes: the first typically keeps every hypothesis,
# the second typically falsifies it.  Neither outcome is required.
PERTURB_EPS = {"keep": 1e-3, "break": 0.3}
PERTURB_MODES = {
    "P1-sqrt-sum": ["--lambda1", "0.2", "--lambda2", "0.2", "--gamma", "0.1"],
    "P-variant-kstar": ["--lambda1", "0.2", "--lambda2", "0.2", "--gamma", "0.1"],
    "C-p2-normsum": ["--R", "0.2"],
    "T-sqsum": ["--R", "0.05"],
}
# Defects of the program that some jobs hit: (name, job key, failure) patterns.
# Each job a pattern names runs once at set-up; if it fails as the pattern
# says, it is set aside from the timed jobs and reported by the defect's
# name, so that a fix shows as fewer set-aside jobs.  Any other failure, a
# crash or a refusal included, is a wrong answer and makes the run incorrect.
KNOWN_DEFECTS = (
    # optimal_bounds finds A > B for the 1e-3*k target (ROADMAP open item 3).
    ("optimal-bounds-a-gt-b", r"analyze:.*:k_milli",
     r"error: optimal lower bound \S+ exceeded upper bound "),
    # `dual --method canonical --out` cannot write the dual of fixture FIX-A.
    ("canonical-dual-out-fix-a", r"dual-canonical:fix_a",
     r'exit code 2: .*"error":"subspace 0 vectors must have length '),
    # transform_invertible certifies (A, B |u|^2) with A > B |u|^2 for some u.
    ("transform-invertible-a-gt-b", r"transform-invertible:.*",
     r"uncaught InputError: lower bound \S+ exceeds upper bound "),
)
# Mirrors the perturbation module's published sampling policy.
EXHAUSTIVE_LIMIT = 12
SAMPLED_SUBSETS = 512
RANDOM_PROBES = 200


@dataclass
class Job:
    """One call of a public entry point and the check of its report."""

    key: str
    call: Callable[[], tuple]
    # Returns None when the report is right, else the reason it is not.
    check: Callable[[int, str], str | None]


@dataclass
class Workload:
    jobs: list
    # argv of one cheap job, run again as fresh `python -m framelab` processes.
    cold_argv: list


def may_hit_defect(key: str) -> bool:
    return any(re.fullmatch(job, key) for _, job, _ in KNOWN_DEFECTS)


def known_defect(key: str, error: str) -> str | None:
    """Name of the known defect this failure of this job is, if any."""
    for name, job, failure in KNOWN_DEFECTS:
        if re.fullmatch(job, key) and re.match(failure, error):
            return name
    return None


def run_cli(argv) -> tuple:
    """framelab.cli.main(argv) with stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def member_shapes(dim: int, members: int) -> list:
    """(subspace dim, local dim) per member, chosen so the members cover the space twice."""
    m = min(dim, math.ceil(2 * dim / members))
    return [(m, m + (j % 2)) for j in range(members)]


def random_document(rng, dim, members, complex_field, name, targets=("k",)) -> FrameDocument:
    """A system with random orthonormal subspaces and an invertible target k."""
    def gauss(*shape):
        a = rng.standard_normal(shape)
        return a + 1j * rng.standard_normal(shape) if complex_field else a

    weights, subspaces, local_ops = [], [], []
    for m, d in member_shapes(dim, members):
        basis, _ = np.linalg.qr(gauss(dim, m))
        subspaces.append(basis.T)
        local_ops.append(gauss(d, dim))
        weights.append(0.5 + float(rng.random()))
    q1, _ = np.linalg.qr(gauss(dim, dim))
    q2, _ = np.linalg.qr(gauss(dim, dim))
    k = q1 @ np.diag(0.6 + rng.random(dim)) @ q2
    return FrameDocument(
        field="complex" if complex_field else "real", dim=dim, weights=weights,
        subspaces=subspaces, local_operators=local_ops,
        operators={t: TARGETS[t] * k for t in targets}, meta={"name": name})


def with_targets(doc: FrameDocument) -> FrameDocument:
    """The document with the scaled copies of its k added as extra targets."""
    k = np.asarray(doc.operators["k"])
    operators = dict(doc.operators)
    operators.update({t: scale * k for t, scale in TARGETS.items()})
    return FrameDocument(doc.field, doc.dim, doc.weights, doc.subspaces,
                         doc.local_operators, operators, doc.meta)


def save(doc: FrameDocument, path: str) -> str:
    documents.save_document(doc, path)
    return path


def reference_bounds(doc: FrameDocument) -> dict:
    """Oracle (lower, upper) per target, or None where the oracle refuses."""
    s = oracle.reference_frame_operator(doc)
    upper = oracle.reference_upper_bound(s)
    refs = {}
    for name, k in doc.operators.items():
        try:
            refs[name] = (oracle.reference_lower_bound(s, np.asarray(k)), upper)
        except ValueError:
            refs[name] = None
    return refs


def invertible(matrix) -> bool:
    sv = np.linalg.svd(np.asarray(matrix), compute_uv=False)
    return bool(sv[-1] > 1e-8 * sv[0])


def bounds_error(got, ref) -> str | None:
    """None when (lower, upper) agree with the oracle within REL_TOL."""
    lower, upper = got
    ref_lower, ref_upper = ref
    if not math.isclose(upper, ref_upper, rel_tol=REL_TOL, abs_tol=0.0):
        return f"upper {upper!r} != oracle {ref_upper!r}"
    if abs(lower - ref_lower) > REL_TOL * ref_lower + 1e-12 * ref_upper:
        return f"lower {lower!r} != oracle {ref_lower!r}"
    return None


def _report(code, text):
    if code == 2:
        return None, f"exit code 2: {text.strip()[:200]}"
    report = json.loads(text)
    if "error" in report:
        return None, f"error: {report['error'][:200]}"
    return report, None


def _files_equal(path, reference) -> bool:
    with open(path, "rb") as a, open(reference, "rb") as b:
        return a.read() == b.read()


# -- checks -----------------------------------------------------------------

def check_analyze(ref):
    def check(code, text):
        report, err = _report(code, text)
        if err:
            return err
        if ref is None:
            return "oracle has no reference for this target"
        optimal = report["frame"]["optimal"]
        return bounds_error((optimal["lower"], optimal["upper"]), ref)
    return check


def check_gen(written, references):
    def check(code, text):
        report, err = _report(code, text)
        if err:
            return err
        if report["written"] != written:
            return f"wrote {report['written']}, expected {written}"
        for path, reference in zip(written, references):
            if not _files_equal(path, reference):
                return f"{path} differs from the set-up reference"
        return None
    return check


def check_dual(must_certify, out_path=None):
    def check(code, text):
        report, err = _report(code, text)
        if err:
            return err
        if must_certify and not report["certified"]:
            return "dual not certified on an invertible target"
        if out_path and report.get("written") != out_path:
            return f"dual document not written to {out_path}"
        return None
    return check


def check_identities(subsets, probes, parseval):
    sections = ["dual_subset_identity", "complement_identity"]
    if parseval:
        sections += ["parseval_subset_identity", "three_quarters_bound"]

    def check(code, text):
        report, err = _report(code, text)
        if err:
            return err
        if (report["subsets_tested"], report["probes"]) != (subsets, probes):
            return (f"swept {report['subsets_tested']}x{report['probes']}, "
                    f"expected {subsets}x{probes}")
        if not report.get("dual", {}).get("certified"):
            return "canonical dual not certified on an invertible target"
        for name in sections:
            if not report.get(name, {}).get("passed"):
                return f"{name} did not pass"
        return None
    return check


def check_perturb(subsets, min_probes, base_ref, theta_ref):
    def check(code, text):
        report, err = _report(code, text)
        if err:
            return err
        hyp = report["hypothesis"]
        if hyp["subsets_tested"] != subsets or hyp["probes_tested"] < min_probes:
            return (f"swept {hyp['subsets_tested']}x{hyp['probes_tested']}, "
                    f"expected {subsets}x>={min_probes}")
        if hyp["falsified"]:
            return None
        base = report["base_bounds"]
        err = bounds_error((base["lower"], base["upper"]), base_ref)
        if err is None and "theta_bounds" in report:
            theta = report["theta_bounds"]
            err = bounds_error((theta["lower"], theta["upper"]), theta_ref)
        return err
    return check


# -- transforms (library jobs) ----------------------------------------------

def _bounds(b):
    return [float(b.lower), float(b.upper)]


def _transformed(result):
    report = result.report
    return {"certified": _bounds(result.certified), "optimal": _bounds(report.optimal),
            "is_frame": bool(report.is_frame), "claimed_valid": bool(report.claimed_valid)}


def _reduced(result):
    summary = {"derivable": bool(result.derivable), "lambda_min": result.lambda_min,
               "certified_lower": result.certified_lower,
               "certified_ok": result.certified_ok}
    if result.fallback_report is not None:
        summary["fallback_optimal"] = _bounds(result.fallback_report.optimal)
    return summary


def transform_job(doc, kind, u):
    """Library call: build the system from the in-memory document, then transform it."""
    def call():
        system, operators = documents.to_system(doc)
        k, op = operators["k"], BoundedOperator(u)
        try:
            if kind == "unitary":
                summary = _transformed(transforms.transform_unitary(system, k, op))
            elif kind == "invertible":
                summary = _transformed(transforms.transform_invertible(system, k, op))
            else:
                summary = _reduced(transforms.reduce_operator(system, k, op))
        except PreconditionError as exc:
            return 1, documents.canonical_json({"precondition": str(exc)})
        return 0, documents.canonical_json(summary)
    return call


def check_transform(kind, ref):
    is_frame = ref is not None and ref[0] > 0.0

    def check(code, text):
        summary = json.loads(text)
        if code == 1:
            return None if not is_frame else f"refused a frame: {summary['precondition']}"
        if not is_frame:
            return "accepted a system the oracle says is not a frame for k"
        if kind == "reduce":
            if not (summary["derivable"] and summary["certified_ok"]):
                return "reduction u = k m not certified"
            return None
        if not summary["claimed_valid"]:
            return "certified bounds of the moved system do not hold"
        if kind == "unitary":
            return bounds_error(summary["optimal"], ref)
        return None
    return check


# -- workloads ---------------------------------------------------------------

def _gen_job(argv_tail, out_dir, ref_dir):
    """A gen job plus its reference output, written once now by the same call."""
    code, text = run_cli(["gen", *argv_tail, "--out", ref_dir])
    if code != 0:
        raise RuntimeError(f"set-up gen {argv_tail} failed: {text}")
    references = json.loads(text)["written"]
    written = [os.path.join(out_dir, os.path.basename(p)) for p in references]
    argv = ["gen", *argv_tail, "--out", out_dir]
    return Job("gen:" + " ".join(argv_tail), lambda: run_cli(argv),
               check_gen(written, references))


def _cli_job(key, argv, check):
    return Job(key, lambda: run_cli(argv), check)


def verify_ladder(seed: int) -> Workload:
    rng = np.random.Generator(np.random.PCG64(seed))
    for sub in ("docs", "gen", "ref", "duals"):
        os.makedirs(sub, exist_ok=True)
    docs = []
    for dim in LADDER_DIMS:
        for members in LADDER_MEMBERS:
            for field in ("real", "complex"):
                name = f"ladder_{field}_d{dim}_m{members}"
                docs.append(random_document(rng, dim, members, field == "complex",
                                            name, tuple(TARGETS)))
    for fixture in documents.packaged_fixture_names():
        doc = with_targets(documents.load_packaged_fixture(fixture))
        doc.meta = dict(doc.meta, name=fixture.lower().replace("-", "_"))
        docs.append(doc)

    jobs = []
    for i, (dim, members) in enumerate((d, m) for d in LADDER_DIMS for m in LADDER_MEMBERS):
        spec = [str(dim)] + [f"{m}x{d}" for m, d in member_shapes(dim, members)]
        jobs.append(_gen_job(["--spec", *spec, "--seed", str(seed * 100 + i)], "gen", "ref"))
    for fixture in documents.packaged_fixture_names():
        jobs.append(_gen_job(["--fixture", fixture], "gen", "ref"))

    for doc in docs:
        name = doc.meta["name"]
        path = save(doc, os.path.join("docs", name + ".json"))
        refs = reference_bounds(doc)
        for target in TARGETS:
            jobs.append(_cli_job(f"analyze:{name}:{target}", ["analyze", path, "--k", target],
                                 check_analyze(refs[target])))
        k = np.asarray(doc.operators["k"])
        certify = invertible(k) and refs["k"] is not None and refs["k"][0] > 0.0
        jobs.append(_cli_job(f"dual-q:{name}", ["dual", path, "--method", "q"],
                             check_dual(certify)))
        out = os.path.join("duals", name + ".json")
        jobs.append(_cli_job(f"dual-canonical:{name}",
                             ["dual", path, "--method", "canonical", "--out", out],
                             check_dual(certify, out)))
        n = doc.dim
        unitary, _ = np.linalg.qr(rng.standard_normal((n, n)))
        near_identity = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / math.sqrt(n)
        factor = k @ (np.eye(n) + 0.3 * rng.standard_normal((n, n)) / math.sqrt(n))
        for kind, u in (("unitary", unitary), ("invertible", near_identity),
                        ("reduce", factor)):
            jobs.append(Job(f"transform-{kind}:{name}", transform_job(doc, kind, u),
                            check_transform(kind, refs["k"])))
    return Workload(jobs, ["analyze", os.path.join("docs", "ladder_complex_d8_m6.json")])


def identity_sweep(seed: int) -> Workload:
    rng = np.random.Generator(np.random.PCG64(seed))
    os.makedirs("docs", exist_ok=True)
    jobs = []
    for dim, members in IDENTITY_SIZES:
        name = f"sweep_d{dim}_m{members}"
        path = save(random_document(rng, dim, members, False, name),
                    os.path.join("docs", name + ".json"))
        probes = dim + IDENTITY_TRIALS
        for parseval in (False, True)[:1 + ((dim, members) in PARSEVALIZED_SIZES)]:
            argv = ["identities", path, "--trials", str(IDENTITY_TRIALS)]
            argv += ["--parsevalize"] if parseval else []
            jobs.append(_cli_job(f"identities:{name}:{parseval}", argv,
                                 check_identities(2**members, probes, parseval)))
    return Workload(jobs, ["identities", os.path.join("docs", "sweep_d6_m4.json"),
                           "--trials", str(IDENTITY_TRIALS)])


def perturbed(doc: FrameDocument, rng, eps: float) -> FrameDocument:
    """The document with each L_j moved by eps*|L_j| in a seeded direction."""
    local_ops = []
    for lmat in doc.local_operators:
        g = rng.standard_normal(np.shape(lmat))
        local_ops.append(lmat + eps * np.linalg.norm(lmat, 2) * g / np.linalg.norm(g, 2))
    return FrameDocument(doc.field, doc.dim, doc.weights, doc.subspaces, local_ops,
                         doc.operators, dict(doc.meta, perturbation=eps))


def perturb_search(seed: int) -> Workload:
    rng = np.random.Generator(np.random.PCG64(seed))
    os.makedirs("docs", exist_ok=True)
    jobs = []
    for members in PERTURB_MEMBERS:
        name = f"base_m{members}"
        base = random_document(rng, PERTURB_DIM, members, False, name)
        path = save(base, os.path.join("docs", name + ".json"))
        base_ref = reference_bounds(base)["k"]
        subsets = 2**members - 1 if members <= EXHAUSTIVE_LIMIT else SAMPLED_SUBSETS
        for label, eps in PERTURB_EPS.items():
            theta = perturbed(base, rng, eps)
            if members == 12 and label == "keep":
                continue
            theta_path = save(theta, os.path.join("docs", f"theta_m{members}_{label}.json"))
            theta_ref = reference_bounds(theta)["k"]
            for mode, params in PERTURB_MODES.items():
                argv = ["perturb", path, "--theta", theta_path, "--mode", mode, *params]
                jobs.append(_cli_job(f"perturb:{name}:{label}:{mode}", argv,
                                     check_perturb(subsets, PERTURB_DIM + RANDOM_PROBES,
                                                   base_ref, theta_ref)))
    return Workload(jobs, ["perturb", os.path.join("docs", "base_m6.json"), "--theta",
                           os.path.join("docs", "theta_m6_keep.json"), "--mode", "T-sqsum",
                           *PERTURB_MODES["T-sqsum"]])


WORKLOADS = {
    "verify-ladder": verify_ladder,
    "identity-sweep": identity_sweep,
    "perturb-search": perturb_search,
}


def sweep_pairs(text: str) -> int:
    """(subset, probe) pairs a sweep report says it evaluated; 0 for other reports."""
    if '"subsets_tested"' not in text:
        return 0
    report = json.loads(text)
    if "hypothesis" in report:
        hyp = report["hypothesis"]
        return hyp["subsets_tested"] * hyp["probes_tested"]
    return report["subsets_tested"] * report["probes"]


def probes_tested(text: str) -> int:
    """Probes a perturb report says it tested; 0 for other reports."""
    if '"probes_tested"' not in text:
        return 0
    return json.loads(text)["hypothesis"]["probes_tested"]


def written_paths(text: str) -> list:
    """Files a report says the job wrote."""
    if '"written"' not in text:
        return []
    written = json.loads(text)["written"]
    return written if isinstance(written, list) else [written]

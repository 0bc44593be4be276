"""Batch front end: analyze documents, build duals, check identities.

Every command prints one report to stdout.  The default rendering is
canonical JSON (sorted keys, 17 significant digits, trailing newline) so a
report is byte-reproducible; ``--human`` switches to flat ``key: value``
lines without changing any verdict or the exit code.  Exit codes: 0 when all
asserted checks pass, 1 when a check fails, 2 on input or parse errors and
on an output path that cannot be written.

A command imports the modules only it runs (duality, perturbation, oracle)
when it runs, so a one-off call loads no more of the package than it uses.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import documents
from .frame_ops import FrameBounds, verify_k_g_fusion
from .model import (
    BoundedOperator,
    GFusionSystem,
    HilbertSpace,
    LocalOperator,
    WeightedSubspace,
)
from .numerics import (
    DEFAULT_TOL,
    DualConstructionError,
    InputError,
    InternalConsistencyError,
    PreconditionError,
    ToleranceProfile,
    orthonormalize,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framelab",
        description="Construct and verify operator-relative fusion frame systems.")
    parser.add_argument("--tol-abs", type=float, default=DEFAULT_TOL.tau_abs,
                        help="absolute tolerance floor (default 1e-10)")
    parser.add_argument("--tol-rel", type=float, default=None,
                        help="relative tolerance (default 1e-9; env FRAMELAB_TOL_REL)")
    parser.add_argument("--human", action="store_true",
                        help="flat key: value output instead of JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="verify frame inequalities and optimal bounds")
    p.add_argument("path")
    p.add_argument("--k", default="k", help="name of the target operator (default k)")
    p.add_argument("--bounds", nargs=2, type=float, metavar=("A", "B"),
                   help="claimed bounds to verify")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("dual", help="construct and verify a dual system")
    p.add_argument("path")
    p.add_argument("--k", default="k")
    p.add_argument("--method", choices=("q", "canonical"), default="q")
    p.add_argument("--out", help="write the constructed dual as a document")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("identities", help="check subset identity theorems")
    p.add_argument("path")
    p.add_argument("--k", default="k")
    p.add_argument("--dual", help="document holding a candidate dual system")
    p.add_argument("--trials", type=int, default=20,
                   help="random probes per check beyond the standard basis")
    p.add_argument("--parsevalize", action="store_true",
                   help="substitute k := S^(1/2) so the system is Parseval")
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("perturb", help="perturbation hypothesis and conclusion checks")
    p.add_argument("path")
    p.add_argument("--theta", required=True,
                   help="document whose local operators are the perturbed family")
    p.add_argument("--k", default="k")
    p.add_argument("--mode", required=True,
                   help="hypothesis shape; an unknown name is reported with the known ones")
    p.add_argument("--lambda1", type=float, default=0.0)
    p.add_argument("--lambda2", type=float, default=0.0)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--R", type=float, default=0.0)
    p.add_argument("--require-hypothesis", action="store_true",
                   help="exit 1 when the hypothesis is falsified")
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("gen", help="emit fixture documents and oracle sidecars")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--fixture", help="committed fixture name, e.g. FIX-A")
    group.add_argument("--spec", nargs="+", metavar="DIM/MxD",
                       help="ambient dim followed by member shapes, e.g. 6 3x2 2x4")
    p.add_argument("--seed", type=int, default=0, help="generator seed for --spec")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_gen)
    return parser


def _bounds_dict(bounds) -> dict:
    return {"lower": float(bounds.lower), "upper": float(bounds.upper)}


def _operator(operators: dict, name: str) -> BoundedOperator:
    if name not in operators:
        raise InputError(
            f"document has no operator named {name!r}; available: {sorted(operators)}")
    return operators[name]


def _frame_section(report) -> dict:
    section = {
        "is_bessel": bool(report.is_bessel),
        "is_frame": bool(report.is_frame),
        "is_parseval": bool(report.is_parseval),
        "optimal": _bounds_dict(report.optimal),
        "range_inclusion_residual": float(report.range_inclusion_residual),
        "parseval_residual": float(report.parseval_residual),
    }
    if report.claimed is not None:
        section["claimed"] = {
            "bounds": _bounds_dict(report.claimed),
            "lower_ok": bool(report.claimed_lower_ok),
            "upper_ok": bool(report.claimed_upper_ok),
            "valid": bool(report.claimed_valid),
        }
    return section


def cmd_analyze(args, tol):
    doc = documents.load_document(args.path)
    system, operators = documents.to_system(doc)
    k = _operator(operators, args.k)
    claimed = FrameBounds(args.bounds[0], args.bounds[1]) if args.bounds else None
    report = verify_k_g_fusion(system, k, claimed=claimed, tol=tol)
    body = {"target": args.k, "frame": _frame_section(report)}
    records = [dict(r) for r in doc.meta.get("errata", ())
               if isinstance(r, dict) and r.get("operator") == args.k]
    if records:
        body["discrepancies"] = records
    ok = report.is_frame and (claimed is None or report.claimed_valid)
    return (0 if ok else 1), body


def cmd_dual(args, tol):
    from . import duality

    doc = documents.load_document(args.path)
    system, operators = documents.to_system(doc)
    k = _operator(operators, args.k)
    if args.method == "q":
        try:
            pair = duality.construct_q_dual(system, k, tol)
        except DualConstructionError as exc:
            return 1, {"method": "q", "certified": False, "error": str(exc),
                       "reading_residuals": {n: float(v) for n, v in exc.residuals.items()}}
        report = duality.qdual_bound_corollary(pair, tol)
        forms = report.coupling
        body = {
            "method": "q",
            "certified": bool(forms.passed),
            "reading": pair.reading,
            "residual": float(pair.residual),
            "well_defined_residual": float(pair.well_defined_residual),
            "forms": {
                "synthesis": float(forms.synthesis_residual),
                "adjoint": float(forms.adjoint_residual),
                "bilinear": float(forms.bilinear_residual),
            },
            "coupling_norm": float(report.q_norm),
            "dual_frame": _frame_section(report.dual_report),
            "corollary": {
                "dual_lower": float(report.dual_lower),
                "dual_upper": float(report.dual_upper),
                "lower_floor": float(report.lower_floor),
                "upper_floor": float(report.upper_floor),
                "lower_ok": bool(report.lower_ok),
                "upper_ok": bool(report.upper_ok),
            },
        }
        meta = {"kind": "q-dual", "reading": pair.reading}
    else:
        pair = duality.canonical_dual(system, k, tol)
        report = duality.verify_kgf_dual(pair, tol)
        body = {
            "method": "canonical",
            "exploratory": bool(pair.exploratory),
            "probe_residual": float(report.probe_residual),
            "operator_residual": float(report.operator_residual),
            "certified": bool(report.certified),
        }
        if report.dual_report is not None:
            body["dual_frame"] = _frame_section(report.dual_report)
            body["certified_lower"] = float(report.certified_lower)
            body["certified_lower_ok"] = bool(report.certified_lower_ok)
        meta = {"kind": "canonical-dual", "exploratory": bool(pair.exploratory)}
    if args.out:
        documents.save_document(documents.from_system(pair.dual, {"k": k}, meta), args.out)
        body["written"] = args.out
    return (0 if report.passed else 1), body


def cmd_identities(args, tol):
    from . import duality

    doc = documents.load_document(args.path)
    system, operators = documents.to_system(doc)
    notes = []
    if args.parsevalize:
        k = duality.parsevalize(system, tol)
        notes.append("substituted k := S^(1/2); identity checks run against it")
    else:
        k = _operator(operators, args.k)
    dual = documents.to_system(documents.load_document(args.dual))[0] if args.dual else None
    report = duality.identities_report(system, k, args.trials, dual, tol=tol)
    body = {"notes": notes + report.notes, "subsets_tested": report.subsets_tested,
            "probes": report.probes, **report.checks}
    return (0 if report.passed else 1), body


def cmd_perturb(args, tol):
    from . import perturbation

    # the constants and the mode name are checked before any document is read
    params = perturbation.PerturbationParams(args.lambda1, args.lambda2, args.gamma,
                                             args.R, args.mode)
    doc = documents.load_document(args.path)
    system, operators = documents.to_system(doc)
    k = _operator(operators, args.k)
    theta_doc = documents.load_document(args.theta)
    if (theta_doc.field, theta_doc.dim) != (doc.field, doc.dim):
        raise InputError(
            f"perturbed document is over a {theta_doc.field} space of dim "
            f"{theta_doc.dim}, expected {doc.field} of dim {doc.dim}")
    theta = system.with_local_operators(theta_doc.local_operators)
    verdict = perturbation.perturb_hypothesis(system, theta, k, params, tol)
    body = {
        "mode": params.mode.value,
        "hypothesis": {
            "falsified": bool(verdict.falsified),
            "worst_violation": float(verdict.worst_violation),
            "subsets_tested": int(verdict.subsets_tested),
            "probes_tested": int(verdict.probes_tested),
            "worst_subset": [int(j) for j in verdict.worst_subset],
        },
    }
    if verdict.falsified:
        body["verdict"] = "hypothesis falsified"
        return (1 if args.require_hypothesis else 0), body
    body["verdict"] = "hypothesis not falsified"
    try:
        report = perturbation.verify_perturbation_theorem(
            system, theta, k, params, tol, verdict)
    except InternalConsistencyError as exc:
        body["error"] = str(exc)
        return 1, body
    body["theta_is_frame"] = bool(report.theta_report.is_frame)
    body["base_bounds"] = _bounds_dict(report.base_bounds)
    if report.predicted is not None:
        body["predicted_bounds"] = _bounds_dict(report.predicted)
    if report.theta_bounds is not None:
        body["theta_bounds"] = _bounds_dict(report.theta_bounds)
        body["lower_contained"] = bool(report.lower_contained)
        body["upper_contained"] = bool(report.upper_contained)
    if report.hypothesis_certified is not None:
        body["hypothesis_certified"] = bool(report.hypothesis_certified)
    if report.gamma_readings is not None:
        body["gamma_readings"] = report.gamma_readings
    body["erratum_records"] = report.erratum_log
    return (0 if report.theta_report.is_frame else 1), body


def _spec_document(tokens, seed: int) -> documents.FrameDocument:
    if seed < 0:
        raise InputError(f"--seed must be a non-negative integer, got {seed}")
    if len(tokens) < 2:
        raise InputError("--spec needs an ambient dimension and at least one MxD shape")
    try:
        dim = int(tokens[0])
    except ValueError as exc:
        raise InputError(f"ambient dimension must be an integer, got {tokens[0]!r}") from exc
    if dim <= 0:
        raise InputError("ambient dimension must be positive")
    shapes = []
    for token in tokens[1:]:
        try:
            m, d = (int(part) for part in token.lower().split("x"))
        except ValueError as exc:
            raise InputError(f"member shape must look like MxD, got {token!r}") from exc
        if not (1 <= m <= dim) or d < 1:
            raise InputError(f"member shape {token!r} out of range for dim {dim}")
        shapes.append((m, d))
    rng = np.random.Generator(np.random.PCG64(seed))
    space = HilbertSpace("real", dim)
    members = []
    for m, d in shapes:
        basis = orthonormalize(rng.standard_normal((dim, m)))
        local = rng.standard_normal((d, dim))
        weight = 0.5 + rng.random()
        members.append((WeightedSubspace(basis, float(weight)), LocalOperator(local)))
    system = GFusionSystem(space, tuple(members))
    q1, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    q2, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    singulars = 0.6 + rng.random(dim)
    k = q1 @ np.diag(singulars) @ q2
    stem = "spec_" + "_".join([str(dim)] + [f"{m}x{d}" for m, d in shapes]) + f"_seed{seed}"
    meta = {"name": stem, "seed": seed,
            "spec": [str(dim)] + [f"{m}x{d}" for m, d in shapes]}
    return documents.from_system(system, {"k": k}, meta)


def cmd_gen(args, tol):
    from . import oracle

    if args.fixture:
        doc = documents.load_packaged_fixture(args.fixture)
        stem = args.fixture.lower().replace("-", "_")
    else:
        doc = _spec_document(args.spec, args.seed)
        stem = doc.meta["name"]
    documents.to_system(doc)
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    doc_path = os.path.join(out_dir, stem + ".json")
    documents.save_document(doc, doc_path)
    sidecar = oracle.oracle_payload(doc)
    sidecar_path = str(documents.oracle_sidecar_path(doc_path))
    with open(sidecar_path, "w", encoding="utf-8") as handle:
        handle.write(documents.canonical_json(sidecar))
    body = {
        "written": [doc_path, sidecar_path],
        "members": len(doc.weights),
        "dim": doc.dim,
    }
    if not args.fixture:
        body["seed"] = args.seed
    return 0, body


def _flatten(prefix: str, value, lines: list):
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else key, value[key], lines)
    else:
        rendered = documents.canonical_json(value).rstrip("\n")
        lines.append(f"{prefix}: {rendered}")


def _render(report: dict, human: bool) -> str:
    if not human:
        return documents.canonical_json(report)
    lines = []
    _flatten("", report, lines)
    return "\n".join(lines) + "\n"


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call in a process; parsing leaves it unchanged."""
    return build_parser()


def _tolerance(args) -> ToleranceProfile:
    tau_rel = args.tol_rel
    if tau_rel is None:
        try:
            tau_rel = float(os.environ.get("FRAMELAB_TOL_REL", DEFAULT_TOL.tau_rel))
        except ValueError:
            raise InputError("FRAMELAB_TOL_REL must be a number") from None
    try:
        return ToleranceProfile(tau_abs=args.tol_abs, tau_rel=tau_rel)
    except InputError as exc:
        raise InputError(f"invalid tolerance: {exc}") from None


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = _parser().parse_args(argv)
    tol = None

    def render(code, body):
        report = {
            "command": args.command,
            "argv": argv,
            # null when the tolerance itself was the input error
            "tolerance": None if tol is None else {"tau_abs": tol.tau_abs, "tau_rel": tol.tau_rel},
            "exit_code": code,
        }
        report.update(body)
        return _render(report, args.human)

    try:
        tol = _tolerance(args)
        code, body = args.func(args, tol)
        text = render(code, body)
    except (InputError, OSError) as exc:
        code, text = 2, render(2, {"error": str(exc)})
    except (PreconditionError, InternalConsistencyError, DualConstructionError) as exc:
        code, text = 1, render(1, {"error": str(exc)})
    sys.stdout.write(text)
    return code

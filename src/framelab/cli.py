"""Batch front end: analyze documents, build duals, check identities.

Each command parses, loads its documents, calls one library function and
prints the report it returns.  The default rendering is canonical JSON
(sorted keys, 17 significant digits, trailing newline) so a report is
byte-reproducible; ``--human`` switches to flat ``key: value`` lines without
changing any verdict or the exit code.  Exit codes: 0 when the report
passes, 1 when it fails or ``perturb --require-hypothesis`` meets a
falsified hypothesis, 2 on input or parse errors and on an output path that
cannot be written.

A command imports the modules only it runs (duality, perturbation, oracle)
when it runs, so a one-off call loads no more of the package than it uses.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys

from . import documents
from .frame_ops import FrameBounds, verify_k_g_fusion
from .numerics import (
    DEFAULT_TOL,
    DualConstructionError,
    InputError,
    InternalConsistencyError,
    PreconditionError,
    ToleranceProfile,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framelab",
        description="Construct and verify operator-relative fusion frame systems.")
    parser.add_argument("--tol-abs", type=float, default=DEFAULT_TOL.tau_abs,
                        help="absolute tolerance floor (default 1e-10)")
    parser.add_argument("--tol-rel", type=float, default=DEFAULT_TOL.tau_rel,
                        help="relative tolerance (default 1e-9)")
    parser.add_argument("--human", action="store_true",
                        help="flat key: value output instead of JSON")
    sub = parser.add_subparsers(dest="command", required=True)
    # the document and target operator every command but gen reads
    target = argparse.ArgumentParser(add_help=False)
    target.add_argument("path")
    target.add_argument("--k", default="k", help="name of the target operator (default k)")

    p = sub.add_parser("analyze", parents=[target],
                       help="verify frame inequalities and optimal bounds")
    p.add_argument("--bounds", nargs=2, type=float, metavar=("A", "B"),
                   help="claimed bounds to verify")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("dual", parents=[target], help="construct and verify a dual system")
    p.add_argument("--method", choices=("q", "canonical"), default="q")
    p.add_argument("--out", help="write the constructed dual as a document")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("identities", parents=[target], help="check subset identity theorems")
    p.add_argument("--dual", help="document holding a candidate dual system")
    p.add_argument("--trials", type=int, default=20,
                   help="random probes per check beyond the standard basis")
    p.add_argument("--parsevalize", action="store_true",
                   help="substitute k := S^(1/2) so the system is Parseval")
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("perturb", parents=[target],
                       help="perturbation hypothesis and conclusion checks")
    p.add_argument("--theta", required=True,
                   help="document whose local operators are the perturbed family")
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


def _bounds_dict(bounds) -> dict | None:
    return None if bounds is None else {"lower": bounds.lower, "upper": bounds.upper}


def _operator(operators: dict, name: str):
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
    return (0 if report.passed else 1), body


def cmd_dual(args, tol):
    from . import duality

    system, operators = documents.to_system(documents.load_document(args.path))
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
        if pair.rejected_residuals:  # the paper's literal reading did not certify
            body["erratum_records"] = [{
                "kind": "literal-reading-failed", "reading": pair.reading,
                "residuals": {n: float(v) for n, v in pair.rejected_residuals.items()}}]
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

    system, operators = documents.to_system(documents.load_document(args.path))
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
    report = perturbation.perturb_report(system, theta_doc.local_operators, k, params, tol=tol)
    verdict, theta = report.verdict, report.theta_report
    body = {
        "mode": params.mode.value,
        "hypothesis": {name: getattr(verdict, name) for name in (
            "falsified", "worst_violation", "subsets_tested", "probes_tested", "worst_subset")},
        "verdict": "hypothesis falsified" if verdict.falsified else "hypothesis not falsified",
        "error": report.error,
    }
    if theta is not None:
        body.update(theta_is_frame=theta.is_frame, erratum_records=report.erratum_log,
                    base_bounds=_bounds_dict(report.base_bounds),
                    predicted_bounds=_bounds_dict(report.predicted),
                    theta_bounds=_bounds_dict(report.theta_bounds),
                    lower_contained=report.lower_contained,
                    upper_contained=report.upper_contained,
                    hypothesis_certified=report.hypothesis_certified,
                    gamma_readings=report.gamma_readings)
    failed = not report.passed or (args.require_hypothesis and verdict.falsified)
    # what the report does not hold (None) is left out
    return (1 if failed else 0), {key: value for key, value in body.items() if value is not None}


def cmd_gen(args, tol):
    from . import oracle

    if args.fixture:
        doc = documents.load_packaged_fixture(args.fixture)
        stem = args.fixture.lower().replace("-", "_")
    else:
        doc = documents.spec_document(args.spec, args.seed)
        stem = doc.meta["name"]
    documents.to_system(doc)
    os.makedirs(args.out, exist_ok=True)
    doc_path = os.path.join(args.out, stem + ".json")
    documents.save_document(doc, doc_path)
    sidecar_path = documents.oracle_sidecar_path(doc_path)
    documents.save_text(sidecar_path, documents.canonical_json(oracle.oracle_payload(doc)))
    body = {
        "written": [doc_path, str(sidecar_path)],
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
    try:
        return ToleranceProfile(tau_abs=args.tol_abs, tau_rel=args.tol_rel)
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

"""Batch front end: analyze documents, build duals, check identities.

Every command prints one report to stdout.  The default rendering is
canonical JSON (sorted keys, 17 significant digits, trailing newline) so a
report is byte-reproducible; ``--human`` switches to flat ``key: value``
lines without changing any verdict or the exit code.  Exit codes: 0 when all
asserted checks pass, 1 when a check fails, 2 on input or parse errors.

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
from .frame_ops import FrameBounds, subset_masks, verify_k_g_fusion
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
    unit_probes,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framelab",
        description="Construct and verify operator-relative fusion frame systems.")
    parser.add_argument("--tol-abs", type=float, default=None,
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


def _real(x) -> float:
    return float(x)


def _bounds_dict(bounds) -> dict:
    return {"lower": _real(bounds.lower), "upper": _real(bounds.upper)}


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
        "range_inclusion_residual": _real(report.range_inclusion_residual),
        "parseval_residual": _real(report.parseval_residual),
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


def _write_dual_document(pair_dual, k, out_path, meta):
    doc = documents.from_system(pair_dual, {"k": k}, meta)
    documents.to_system(doc)
    documents.save_document(doc, out_path)


def cmd_dual(args, tol):
    from . import duality

    doc = documents.load_document(args.path)
    system, operators = documents.to_system(doc)
    k = _operator(operators, args.k)
    if args.method == "q":
        try:
            pair = duality.construct_q_dual(system, k, tol)
        except DualConstructionError as exc:
            body = {
                "method": "q",
                "certified": False,
                "reading_residuals": {name: _real(v) for name, v in exc.residuals.items()},
                "error": str(exc),
            }
            return 1, body
        corollary = duality.qdual_bound_corollary(pair, tol)
        forms, dual_frame = corollary.coupling, corollary.dual_report
        body = {
            "method": "q",
            "certified": bool(forms.passed),
            "reading": pair.reading,
            "residual": _real(pair.residual),
            "well_defined_residual": _real(pair.well_defined_residual),
            "forms": {
                "synthesis": _real(forms.synthesis_residual),
                "adjoint": _real(forms.adjoint_residual),
                "bilinear": _real(forms.bilinear_residual),
            },
            "coupling_norm": _real(corollary.q_norm),
            "dual_frame": _frame_section(dual_frame),
            "corollary": {
                "dual_lower": _real(corollary.dual_lower),
                "dual_upper": _real(corollary.dual_upper),
                "lower_floor": _real(corollary.lower_floor),
                "upper_floor": _real(corollary.upper_floor),
                "lower_ok": bool(corollary.lower_ok),
                "upper_ok": bool(corollary.upper_ok),
            },
        }
        ok = (forms.passed and dual_frame.is_frame
              and corollary.lower_ok and corollary.upper_ok)
        if args.out:
            _write_dual_document(pair.dual, k, args.out,
                                 {"kind": "q-dual", "reading": pair.reading})
            body["written"] = args.out
        return (0 if ok else 1), body
    pair = duality.canonical_dual(system, k, tol)
    report = duality.verify_kgf_dual(pair, tol)
    body = {
        "method": "canonical",
        "exploratory": bool(pair.exploratory),
        "probe_residual": _real(report.probe_residual),
        "operator_residual": _real(report.operator_residual),
        "certified": bool(report.passed),
    }
    if report.dual_report is not None:
        body["dual_frame"] = _frame_section(report.dual_report)
        body["certified_lower"] = _real(report.certified_lower)
        body["certified_lower_ok"] = bool(report.certified_lower_ok)
    if args.out:
        _write_dual_document(pair.dual, k, args.out,
                             {"kind": "canonical-dual",
                              "exploratory": bool(pair.exploratory)})
        body["written"] = args.out
    if pair.exploratory:
        return 0, body
    ok = report.passed and report.dual_report is not None \
        and report.dual_report.is_frame and bool(report.certified_lower_ok)
    return (0 if ok else 1), body


def _identity_probes(system, trials: int) -> np.ndarray:
    return unit_probes(system.dim, max(0, trials),
                       complex_field=system.space.field == "complex", seed=0x1DE7)


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
    probes = _identity_probes(system, args.trials)
    # the empty set, then the nonempty subsets perturb tests, in its order
    masks = np.vstack([np.zeros((1, system.size), dtype=bool),
                       subset_masks(system.size)])
    body = {"notes": notes, "subsets_tested": int(masks.shape[0]),
            "probes": int(probes.shape[0])}
    all_ok = True

    pair = None
    if args.dual:
        dual_system, _ = documents.to_system(documents.load_document(args.dual))
        pair = duality.KGFDualPair(system, dual_system, k)
        source = {"source": "document"}
    else:
        try:
            pair = duality.canonical_dual(system, k, tol)
            source = {"source": "canonical", "exploratory": bool(pair.exploratory)}
        except PreconditionError as exc:
            notes.append(f"no dual: {exc}")
            all_ok = False
    if pair is not None:
        report = duality.verify_kgf_dual(pair, tol)
        body["dual"] = dict(source, operator_residual=_real(report.operator_residual),
                            probe_residual=_real(report.probe_residual),
                            certified=bool(report.passed))
        if pair.exploratory:
            notes.append("rank-deficient target: dual is exploratory; "
                         "subset identity checks skipped")
            pair = None
        elif not report.passed:
            all_ok = False
            pair = None

    if pair is not None:
        sweep = duality.dual_subset_sweep(pair, masks, probes, tol)
        ok = bool(sweep.identity.passed.all())
        worst_complement = float(sweep.complement_residual.max())
        complement_ok = worst_complement <= tol.for_scale(k.norm)
        body["dual_subset_identity"] = {
            "max_residual": _real(sweep.identity.residual.max()),
            "passed": ok,
        }
        body["complement_identity"] = {
            "max_residual": _real(worst_complement),
            "passed": bool(complement_ok),
        }
        all_ok = all_ok and ok and complement_ok

    report = verify_k_g_fusion(system, k, tol=tol)
    body["parseval_defect"] = _real(report.parseval_residual)
    if report.is_parseval:
        # extensions of each I: the empty set, I^c, and the first member of I^c
        comp = ~masks
        first = comp & (np.cumsum(comp, axis=1) == 1)
        extensions = np.stack([np.zeros_like(masks), comp, first], axis=1)
        sweep = duality.parseval_subset_sweep(system, k, masks, extensions, probes, tol)
        ti_ok = bool(sweep.identity.passed.all())
        tq = sweep.three_quarters
        tq_ok = bool(tq.passed.all())
        body["parseval_subset_identity"] = {
            "max_residual": _real(sweep.identity.residual.max()),
            "passed": ti_ok,
        }
        body["three_quarters_bound"] = {
            "min_slack": _real(tq.slack.min()),
            "max_symmetry_residual": _real(tq.symmetry_residual.max()),
            "passed": tq_ok,
        }
        all_ok = all_ok and ti_ok and tq_ok
    else:
        notes.append("system is not Parseval for the target; Parseval identity "
                     "checks skipped (use --parsevalize)")
    return (0 if all_ok else 1), body


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
    if len(theta_doc.local_operators) != system.size:
        raise InputError(
            f"perturbed document has {len(theta_doc.local_operators)} local "
            f"operators, expected {system.size}")
    theta = system.with_local_operators(theta_doc.local_operators)
    verdict = perturbation.perturb_hypothesis(system, theta, k, params, tol)
    body = {
        "mode": params.mode.value,
        "hypothesis": {
            "falsified": bool(verdict.falsified),
            "worst_violation": _real(verdict.worst_violation),
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
        body["gamma_readings"] = {
            name: {
                "admissible": entry["admissible"],
                "lower": None if entry["lower"] is None else _real(entry["lower"]),
                "upper": None if entry["upper"] is None else _real(entry["upper"]),
            }
            for name, entry in report.gamma_readings.items()
        }
    body["erratum_records"] = report.erratum_log
    return (0 if report.theta_report.is_frame else 1), body


def _spec_document(tokens, seed: int) -> documents.FrameDocument:
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
        parts = token.lower().split("x")
        if len(parts) != 2:
            raise InputError(f"member shape must look like MxD, got {token!r}")
        try:
            m, d = int(parts[0]), int(parts[1])
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


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = _parser().parse_args(argv)
    tau_abs = args.tol_abs if args.tol_abs is not None else DEFAULT_TOL.tau_abs
    tau_rel = args.tol_rel
    if tau_rel is None:
        env = os.environ.get("FRAMELAB_TOL_REL")
        if env is not None:
            try:
                tau_rel = float(env)
            except ValueError:
                print("FRAMELAB_TOL_REL must be a number", file=sys.stderr)
                return 2
    if tau_rel is None:
        tau_rel = DEFAULT_TOL.tau_rel
    try:
        tol = ToleranceProfile(tau_abs=float(tau_abs), tau_rel=float(tau_rel))
    except Exception as exc:
        print(f"invalid tolerance: {exc}", file=sys.stderr)
        return 2

    def render(code, body):
        report = {
            "command": args.command,
            "argv": argv,
            "tolerance": {"tau_abs": float(tau_abs), "tau_rel": float(tau_rel)},
            "exit_code": code,
        }
        report.update(body)
        return _render(report, args.human)

    try:
        code, body = args.func(args, tol)
        text = render(code, body)
    except InputError as exc:
        code, text = 2, render(2, {"error": str(exc)})
    except (PreconditionError, InternalConsistencyError, DualConstructionError) as exc:
        code, text = 1, render(1, {"error": str(exc)})
    sys.stdout.write(text)
    return code

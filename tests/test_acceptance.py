"""Acceptance gate: one test and one printed pass/fail line per criterion.

Each criterion pins its own tolerances; the committed suites and fixture
sidecars provide the independent answer keys.  Run with ``-s`` (or read the
captured output block) to see the per-criterion lines.
"""

import contextlib
import io
import itertools
import json
import os

import numpy as np
import pytest

from framelab import (
    BoundedOperator,
    GFusionSystem,
    HilbertSpace,
    LocalOperator,
    PreconditionError,
    WeightedSubspace,
    douglas_factor,
    fixture,
    frame_operator,
    optimal_bounds,
    verify_k_g_fusion,
)
from framelab.cli import main
from framelab.duality import (
    canonical_dual,
    construct_q_dual,
    dual_subset_sweep,
    parseval_subset_sweep,
    parsevalize,
    qdual_bound_corollary,
    verify_kgf_dual,
    verify_q_dual,
)
from framelab.documents import load_document
from framelab.frame_ops import subset_frame_operators
from framelab.numerics import adjoint, numerical_rank, operator_norm, pinv, unit_probes
from framelab.oracle import reference_frame_operator, reference_lower_bound
from framelab.perturbation import (
    PerturbationParams,
    paley_wiener_check,
    perturb_hypothesis,
    verify_perturbation_theorem,
)
from conftest import (
    DATA_DIR,
    FIXTURE_DIR,
    REPO_ROOT,
    decode_case_matrix,
    fix_r_names,
    load_sidecar,
    load_suite,
    subset_rows,
)


@contextlib.contextmanager
def criterion(num, text):
    note = {"extra": ""}
    try:
        yield note
    except BaseException:
        print(f"acceptance {num:02d}: FAIL  {text}")
        raise
    print(f"acceptance {num:02d}: PASS  {text}{note['extra']}")


def all_subsets(size):
    return [tuple(c) for r in range(size + 1)
            for c in itertools.combinations(range(size), r)]


def all_fixture_names():
    return ["FIX-A", "FIX-I"] + fix_r_names()


def invertible_k_names():
    return ["FIX-I"] + fix_r_names()


def scaled_copy(system, c):
    return system.with_local_operators([c * op.matrix for _, op in system.members])


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_01_worked_example_optimal_bounds(fix_a):
    with criterion(1, "worked-example fixture has optimal bounds (0.5, 1.0) within 1e-9"):
        bounds = optimal_bounds(fix_a.system, fix_a.operators["k"])
        assert bounds.lower == pytest.approx(0.5, abs=1e-9)
        assert bounds.upper == pytest.approx(1.0, abs=1e-9)


def test_02_documented_discrepancy_regression(fix_a):
    with criterion(2, "fixture verifies as a frame for 'u' with lower bound 1.0, "
                      "oracle agrees, and the report cites the documented claim"):
        u = fix_a.operators["u"]
        report = verify_k_g_fusion(fix_a.system, u)
        assert report.is_frame
        assert report.optimal.lower == pytest.approx(1.0, abs=1e-9)
        # frozen independent bisection value, and a live recomputation of it
        frozen = load_sidecar("FIX-A")["operators"]["u"]["lower"]
        assert report.optimal.lower == pytest.approx(frozen, rel=1e-8)
        doc = load_document(FIXTURE_DIR / "fix_a.json")
        live = reference_lower_bound(reference_frame_operator(doc), u.matrix)
        assert report.optimal.lower == pytest.approx(live, rel=1e-8)
        # the fixture carries the contrary documented claim and the CLI cites it
        codes = [record["code"] for record in fix_a.errata]
        assert "E1" in codes
        exit_code, out = run_cli(["analyze", str(FIXTURE_DIR / "fix_a.json"),
                                  "--k", "u"])
        assert exit_code == 0
        cited = json.loads(out)["discrepancies"]
        assert cited and cited[0]["code"] == "E1"
        assert "not a 'u'-relative frame" in cited[0]["documented_claim"]


def test_03_range_factorization_suite():
    with criterion(3, "100 committed factorization pairs: residual <= 1e-9 and "
                      "1/|u|^2 matches the bisection oracle to 1e-8 relative"):
        suite = load_suite("douglas_suite.json")
        assert len(suite["pairs"]) == 100
        for case in suite["pairs"]:
            l2 = decode_case_matrix(case, "l2")
            g = decode_case_matrix(case, "g")
            l1 = l2 @ g
            fac = douglas_factor(l1, l2)
            assert fac.included
            assert fac.residual <= 1e-9
            assert operator_norm(l2 @ fac.u_min - l1) <= 1e-9
            a_op = 1.0 / fac.lambda_min**2
            a_ref = reference_lower_bound(l2 @ adjoint(l2), l1)
            assert a_op == pytest.approx(a_ref, rel=1e-8)
        for case in suite["negatives"]:
            t = decode_case_matrix(case, "t")
            k = decode_case_matrix(case, "k")
            assert not douglas_factor(k, t).included


def test_04_pseudoinverse_and_projector_suite():
    with criterion(4, "pseudoinverse and range/co-range projector identities "
                      "hold to 1e-9 on all 200 committed matrices"):
        suite = load_suite("mp_suite.json")
        assert len(suite["cases"]) == 200
        for case in suite["cases"]:
            m = decode_case_matrix(case, "matrix")
            p = pinv(m)
            scale = max(1.0, operator_norm(m))
            assert operator_norm(m @ p @ m - m) / scale <= 1e-9
            assert operator_norm(p @ m @ p - p) / max(1.0, operator_norm(p)) <= 1e-9
            assert operator_norm(adjoint(m @ p) - m @ p) <= 1e-9
            assert operator_norm(adjoint(p @ m) - p @ m) <= 1e-9
            rank = case["rank"]
            assert numerical_rank(m) == rank
            # projections agree with the SVD oracle at the frozen rank
            u_svd, _, vt_svd = np.linalg.svd(m)
            on_range = u_svd[:, :rank] @ adjoint(u_svd[:, :rank])
            on_corange = adjoint(vt_svd[:rank]) @ vt_svd[:rank]
            assert operator_norm(m @ p - on_range) <= 1e-9
            assert operator_norm(p @ m - on_corange) <= 1e-9


def test_05_projection_commutation_suite():
    with criterion(5, "projection/unitary commutation residuals <= 1e-10 on "
                      "all 100 committed pairs"):
        from framelab import check_projection_commutation
        suite = load_suite("projection_lemma_suite.json")
        assert len(suite["cases"]) == 100
        for case in suite["cases"]:
            basis = decode_case_matrix(case, "basis")
            unitary = decode_case_matrix(case, "unitary")
            report = check_projection_commutation(
                WeightedSubspace(basis, 1.0), BoundedOperator(unitary))
            assert report.is_unitary
            assert report.adjoint_residual <= 1e-10
            assert report.unitary_residual <= 1e-10


def test_06_parseval_generator_on_all_fixtures():
    with criterion(6, "square-root generator turns every committed fixture "
                      "Parseval with |S - kk*| <= 1e-10"):
        for name in all_fixture_names():
            bundle = fixture(name)
            root = parsevalize(bundle.system)
            s = frame_operator(bundle.system)
            assert operator_norm(s - root.matrix @ adjoint(root.matrix)) <= 1e-10
            assert verify_k_g_fusion(bundle.system, root).is_parseval, name


def test_07_q_dual_construction_on_all_fixtures():
    with criterion(7, "coupled duals on all 22 fixtures: coupling residual <= 1e-9, "
                      "equivalence forms <= 1e-10, dual is a frame for the adjoint "
                      "target, and its lower bound clears 1/(B |Q|^2) - 1e-9"):
        for name in all_fixture_names():
            bundle = fixture(name)
            k = bundle.operators["k"]
            pair = construct_q_dual(bundle.system, k)
            assert pair.residual <= 1e-9, name
            forms = verify_q_dual(pair)
            assert forms.passed, name
            assert max(forms.synthesis_residual, forms.adjoint_residual,
                       forms.bilinear_residual) <= 1e-10, name
            dual_report = verify_k_g_fusion(pair.dual, k.adjoint())
            assert dual_report.is_frame, name
            corollary = qdual_bound_corollary(pair)
            base_upper = optimal_bounds(bundle.system, k).upper
            floor = 1.0 / (base_upper * corollary.q_norm**2)
            assert corollary.dual_lower >= floor - 1e-9, name
            assert corollary.lower_ok and corollary.upper_ok, name


def test_08_reconstruction_dual_on_all_fixtures(fix_a):
    with criterion(8, "reconstruction duals: defining-identity residual <= 1e-9 "
                      "on every invertible-target fixture") as note:
        for name in invertible_k_names():
            bundle = fixture(name)
            pair = canonical_dual(bundle.system, bundle.operators["k"])
            assert not pair.exploratory, name
            report = verify_kgf_dual(pair)
            assert report.passed, name
            assert report.operator_residual <= 1e-9, name
            assert report.probe_residual <= 1e-9, name
        # rank-deficient target: residual is recorded, nothing is asserted
        exploratory = canonical_dual(fix_a.system, fix_a.operators["k"])
        assert exploratory.exploratory
        recorded = verify_kgf_dual(exploratory).operator_residual
        note["extra"] = (f"  [rank-deficient target recorded: residual "
                         f"{recorded:.3e}, exploratory, no assertion]")


def test_09_identity_theorems():
    with criterion(9, "subset identities <= 1e-9 (exhaustive subsets, 20 probes "
                      "per fixture), 3/4 inequality slack >= -1e-9 on Parseval "
                      "systems, and the extremal system attains 0.75 within 1e-9"):
        # complementary-subset identity over certified reconstruction duals
        for name in invertible_k_names():
            bundle = fixture(name)
            pair = canonical_dual(bundle.system, bundle.operators["k"])
            probes = unit_probes(
                bundle.system.dim, 20,
                complex_field=bundle.system.space.field == "complex", seed=0xACC9)
            subsets = all_subsets(bundle.system.size)
            result = dual_subset_sweep(pair, subset_rows(bundle.system.size, subsets), probes)
            for subset, passed, residual in zip(subsets, result.passed, result.residual):
                assert passed.all(), (name, subset)
                assert (residual <= 1e-9).all(), (name, subset)
        # Parseval identity and the 3/4 inequality, each fixture made Parseval
        for name in all_fixture_names():
            bundle = fixture(name)
            root = parsevalize(bundle.system)
            size = bundle.system.size
            probes = unit_probes(
                bundle.system.dim, 20,
                complex_field=bundle.system.space.field == "complex", seed=0xACC8)
            index_sets = all_subsets(size)
            masks = subset_rows(size, index_sets)
            # the extensions of each I: the empty set and I^c
            sweep = parseval_subset_sweep(bundle.system, root, masks,
                                          np.stack([np.zeros_like(masks), ~masks], axis=1),
                                          probes)
            result, check = sweep.identity, sweep.three_quarters
            for row, index_set in enumerate(index_sets):
                comp = tuple(sorted(set(range(size)) - set(index_set)))
                for e, ext in enumerate(((), comp)):
                    assert result.passed[row, e].all(), (name, index_set, ext)
                    assert (result.residual[row, e] <= 1e-9).all(), (name, index_set, ext)
                assert check.passed[row].all(), (name, index_set)
                assert (check.slack[row] >= -1e-9).all(), (name, index_set)
        # two equal half-weight copies of the full space attain equality
        member = (WeightedSubspace(np.eye(2), 1.0),
                  LocalOperator(np.eye(2) / np.sqrt(2.0)))
        extremal = GFusionSystem(HilbertSpace("real", 2), (member, member))
        k = BoundedOperator.identity(2)
        assert verify_k_g_fusion(extremal, k).is_parseval
        result = parseval_subset_sweep(extremal, k, subset_rows(2, [(0,)]),
                                       np.zeros((1, 0, 2), dtype=bool),
                                       unit_probes(2, 20, seed=0x3F4)).three_quarters
        for slack, lhs in zip(result.slack[0], result.lhs[0]):
            assert slack == pytest.approx(0.0, abs=1e-9)
            assert lhs == pytest.approx(0.75, abs=1e-9)


def test_10_partial_operator_complement_identity():
    with criterion(10, "partial operators satisfy S_I + S_Ic = k to 1e-10 for "
                       "all subsets on every certified dual pair"):
        for name in invertible_k_names():
            bundle = fixture(name)
            pair = canonical_dual(bundle.system, bundle.operators["k"])
            subsets = all_subsets(bundle.system.size)
            masks = subset_rows(bundle.system.size, subsets)
            parts = (subset_frame_operators(pair.base, rows, pair.dual) for rows in (masks, ~masks))
            for subset, s_i, s_c in zip(subsets, *parts):
                assert operator_norm(s_i + s_c - pair.k.matrix) <= 1e-10, (name, subset)


def test_11_scaling_perturbation_containment(fix_i):
    with criterion(11, "scaled families at c in {0.9, 1.05, 1.1}: predicted "
                       "interval contains the measured bounds within 1e-9, and "
                       "the growing identity family attains its upper bound 1.21"):
        for name in invertible_k_names():
            bundle = fixture(name)
            k = bundle.operators["k"]
            k_inv = np.linalg.inv(k.matrix)
            m = k_inv @ frame_operator(bundle.system) @ adjoint(k_inv)
            mu = float(np.linalg.eigvalsh(0.5 * (m + adjoint(m)))[-1])
            for c in (0.9, 1.05, 1.1):
                theta = scaled_copy(bundle.system, c)
                params = PerturbationParams(
                    0.0, 0.0, 0.0, (c - 1.0) ** 2 * mu * (1 + 1e-12), "T-sqsum")
                report = verify_perturbation_theorem(bundle.system, theta, k, params)
                assert report.hypothesis_certified, (name, c)
                assert report.theta_report.is_frame, (name, c)
                assert report.erratum_log == [], (name, c)
                assert report.lower_contained and report.upper_contained, (name, c)
                assert report.predicted.lower <= report.theta_bounds.lower + 1e-9
                assert report.theta_bounds.upper <= report.predicted.upper + 1e-9
        # identity fixture, growing direction: measured upper equals predicted
        report = verify_perturbation_theorem(
            fix_i.system, scaled_copy(fix_i.system, 1.1), fix_i.operators["k"],
            PerturbationParams(0.0, 0.0, 0.0, 0.01, "T-sqsum"))
        assert report.theta_bounds.upper == pytest.approx(report.predicted.upper,
                                                          abs=1e-12)
        assert report.theta_bounds.upper == pytest.approx(1.21, abs=1e-12)


def test_12_hypothesis_falsification_thresholds(fix_i):
    with criterion(12, "hypothesis verdicts match hand thresholds on the scaled "
                       "identity family; frame-ness of the perturbed system is "
                       "asserted; the log is non-empty only when a printed "
                       "constant fails"):
        k = fix_i.operators["k"]
        theta = scaled_copy(fix_i.system, 1.1)
        # aggregate-norm mode: boundary at R = 0.21 for c = 1.1
        at_edge = perturb_hypothesis(fix_i.system, theta, k,
                                     PerturbationParams(0, 0, 0, 0.21,
                                                        "C-p2-normsum"))
        assert not at_edge.falsified
        assert abs(at_edge.worst_violation) <= 1e-12
        below = perturb_hypothesis(fix_i.system, theta, k,
                                   PerturbationParams(0, 0, 0, 0.20,
                                                      "C-p2-normsum"))
        assert below.falsified
        assert below.worst_violation == pytest.approx(0.01, abs=1e-12)
        assert below.worst_subset == (0,)
        # square-root-sum mode: gamma threshold 0.11 against |1 - c^2| = 0.21
        ok = perturb_hypothesis(fix_i.system, theta, k,
                                PerturbationParams(0.1, 0.0, 0.11, 0.0,
                                                   "P1-sqrt-sum"))
        assert not ok.falsified
        short = perturb_hypothesis(fix_i.system, theta, k,
                                   PerturbationParams(0.1, 0.0, 0.10, 0.0,
                                                      "P1-sqrt-sum"))
        assert short.falsified
        assert short.worst_violation == pytest.approx(0.01, abs=1e-9)
        # full runs: frame-ness asserted, containment logged, log stays empty
        for params in (PerturbationParams(0, 0, 0, 0.21, "C-p2-normsum"),
                       PerturbationParams(0.1, 0.0, 0.11, 0.0, "P1-sqrt-sum")):
            report = verify_perturbation_theorem(fix_i.system, theta, k, params)
            assert report.theta_report.is_frame
            assert report.lower_contained and report.upper_contained
            assert report.erratum_log == []
        # a printed constant outside its admissible range is logged, not raised
        bad = verify_perturbation_theorem(
            fix_i.system, theta, k, PerturbationParams(0, 0, 0, 1.5, "T-sqsum"))
        assert bad.predicted is None
        assert [r["kind"] for r in bad.erratum_log] == ["inadmissible-parameters"]


def test_13_near_identity_certificates():
    with criterion(13, "all 100 committed near-identity cases certify, with the "
                       "spectrum inside the predicted window and the inverse "
                       "bounds holding to 1e-10"):
        suite = load_suite("paley_wiener_suite.json")
        assert len(suite["cases"]) == 100
        for case in suite["cases"]:
            u = decode_case_matrix(case, "u")
            report = paley_wiener_check(u, case["lambda1"], case["lambda2"])
            assert report.certified
            assert report.conclusion_ok
            singulars = np.linalg.svd(u, compute_uv=False)
            assert singulars.min() >= report.predicted_sigma_lower - 1e-10
            assert singulars.max() <= report.predicted_sigma_upper + 1e-10
            assert 1.0 / singulars.max() >= report.inverse_lower - 1e-10
            assert 1.0 / singulars.min() <= report.inverse_upper + 1e-10


def test_14_cli_reports_byte_for_byte(monkeypatch):
    with criterion(14, "every committed CLI report reproduces byte-for-byte and "
                       "the exit-code contract holds"):
        monkeypatch.chdir(REPO_ROOT)
        (REPO_ROOT / "build" / "gen_check").mkdir(parents=True, exist_ok=True)
        cases = json.loads((DATA_DIR / "cli_reports" / "cases.json")
                           .read_text(encoding="utf-8"))["cases"]
        assert len(cases) >= 10
        seen_codes = set()
        for case in cases:
            expected = (DATA_DIR / "cli_reports" / (case["name"] + ".json")
                        ).read_text(encoding="utf-8")
            code, out = run_cli(case["argv"])
            assert out == expected, case["name"]
            assert code == case["exit_code"], case["name"]
            seen_codes.add(code)
        assert {0, 1} <= seen_codes
        # malformed input exits 2 and still emits a report
        code, out = run_cli(["analyze", "tests/data/cli_reports/cases.json",
                             "--k", "k"])
        assert code == 2
        assert json.loads(out)["exit_code"] == 2

"""Near-identity certificates and the four perturbation hypothesis shapes."""

import json
import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from framelab import (
    DEFAULT_TOL,
    BoundedOperator,
    GFusionSystem,
    InputError,
    PreconditionError,
    cli,
    fixture,
    frame_operator,
    frame_ops,
    optimal_bounds,
    perturbation,
)
from framelab.documents import (
    load_document,
    load_packaged_fixture,
    packaged_fixture_names,
    save_document,
    spec_document,
    to_system,
)
from framelab.frame_ops import subset_masks
from framelab.model import HilbertSpace, LocalOperator, WeightedSubspace
from framelab.numerics import adjoint, at_most, column_norms, psd_check, psd_eig, unit_probes
from framelab.perturbation import (
    PerturbationMode,
    PerturbationParams,
    _member_data,
    _on_base,
    _violations,
    paley_wiener_check,
    perturb_hypothesis,
    predicted_bounds,
    variant_gamma_readings,
    verify_perturbation_theorem,
)
from conftest import DATA_DIR, count_calls, decode_case_matrix, fix_r_names, load_suite

MODE_PARAMS = [
    PerturbationParams(0.2, 0.2, 0.1, 0.0, "P1-sqrt-sum"),
    PerturbationParams(0.2, 0.2, 0.1, 0.0, "P-variant-kstar"),
    PerturbationParams(0.0, 0.0, 0.0, 0.2, "C-p2-normsum"),
    PerturbationParams(0.0, 0.0, 0.0, 0.05, "T-sqsum"),
]


def scaled_system(bundle, c):
    return bundle.system.with_local_operators(
        [c * op.matrix for _, op in bundle.system.members])


def test_params_validation():
    params = PerturbationParams(0.1, 0.2, 0.3, 0.4, "T-sqsum")
    assert params.mode is PerturbationMode.SQUARE_SUM
    assert PerturbationParams(0, 0, 0, 0, PerturbationMode.SQRT_SUM).mode \
        is PerturbationMode.SQRT_SUM
    with pytest.raises(InputError):
        PerturbationParams(1.0, 0.0, 0.0, 0.0, "T-sqsum")
    with pytest.raises(InputError):
        PerturbationParams(0.0, 0.0, -0.1, 0.0, "T-sqsum")
    with pytest.raises(InputError):
        PerturbationParams(0.0, 0.0, 0.0, float("inf"), "T-sqsum")
    with pytest.raises(InputError):
        PerturbationParams(0.0, 0.0, 0.0, 0.0, "bogus-mode")


def test_params_refuse_a_string_constant():
    with pytest.raises(InputError, match="lambda1 must be a real scalar, got '0.1'"):
        PerturbationParams(lambda1="0.1")


def test_params_refuse_a_missing_constant():
    with pytest.raises(InputError, match="R must be a real scalar, got None"):
        PerturbationParams(R=None)


def test_params_refuse_a_bool_constant():
    with pytest.raises(InputError, match="gamma must be a real scalar, got True"):
        PerturbationParams(gamma=True, R=False)
    with pytest.raises(InputError, match="R must be a real scalar, got False"):
        PerturbationParams(R=False)


def test_params_store_float_constants():
    params = PerturbationParams(0, np.float32(0.5), np.int64(2), 1)
    stored = (params.lambda1, params.lambda2, params.gamma, params.R)
    assert all(type(value) is float for value in stored)
    assert stored == (0.0, 0.5, 2.0, 1.0)


def test_paley_wiener_half_identity():
    report = paley_wiener_check(0.5 * np.eye(3), 0.5, 0.0)
    assert report.certified
    assert report.defect_norm == pytest.approx(0.5, abs=1e-12)
    # the certified window is [1 - lambda1, 1 + lambda1] and sigma_min sits
    # exactly on its lower edge
    assert report.predicted_sigma_lower == pytest.approx(0.5, abs=1e-12)
    assert report.predicted_sigma_upper == pytest.approx(1.5, abs=1e-12)
    assert report.sigma_min == pytest.approx(0.5, abs=1e-12)
    assert report.conclusion_ok
    assert report.inverse_lower == pytest.approx(1.0 / 1.5, abs=1e-12)
    assert report.inverse_upper == pytest.approx(2.0, abs=1e-12)


def test_paley_wiener_rejects_an_empty_operator():
    with pytest.raises(InputError, match="must not be empty"):
        paley_wiener_check(np.zeros((0, 0)), 0.1, 0.1)


def test_paley_wiener_identity_and_diagonal():
    assert paley_wiener_check(np.eye(4), 0.05, 0.0).certified
    report = paley_wiener_check(np.diag([0.9, 1.1]), 0.1, 0.0)
    assert report.certified
    assert report.sigma_min == pytest.approx(0.9, abs=1e-12)
    assert report.sigma_max == pytest.approx(1.1, abs=1e-12)
    assert report.conclusion_ok


def test_paley_wiener_uncertified_is_inconclusive():
    # defect 1.0 exceeds lambda1 + lambda2 sigma_min: no certificate, and the
    # check must not claim anything about the spectrum
    report = paley_wiener_check(2.0 * np.eye(2), 0.3, 0.2)
    assert not report.certified
    assert report.conclusion_ok is None


def test_paley_wiener_lambda2_enters_certificate():
    u = 0.5 * np.eye(2)
    tight = paley_wiener_check(u, 0.4, 0.0)
    assert not tight.certified
    helped = paley_wiener_check(u, 0.4, 0.21)
    assert helped.certified
    assert helped.conclusion_ok


@pytest.mark.parametrize("value", ["0.1", [0.1], None, False, True, float("nan"), 1.0, -0.1],
                         ids=["str", "list", "None", "False", "True", "nan", "one", "negative"])
def test_paley_wiener_gates_the_lambdas_as_the_params_do(value):
    for lambdas in ((value, 0.0), (0.0, value)):
        with pytest.raises(InputError, match="lambda[12] must"):
            paley_wiener_check(np.eye(2), *lambdas)


def test_paley_wiener_suite():
    suite = load_suite("paley_wiener_suite.json")
    for case in suite["cases"][:30]:
        u = decode_case_matrix(case, "u")
        report = paley_wiener_check(u, case["lambda1"], case["lambda2"])
        assert report.certified
        assert report.conclusion_ok
        assert report.sigma_min >= report.predicted_sigma_lower - 1e-10
        assert report.sigma_max <= report.predicted_sigma_upper + 1e-10


def test_zero_perturbation_fixed_point(fix_i):
    params = PerturbationParams(0.0, 0.0, 0.0, 0.0, "T-sqsum")
    report = verify_perturbation_theorem(fix_i.system, fix_i.system,
                                         fix_i.operators["k"], params)
    assert not report.verdict.falsified
    assert report.hypothesis_certified
    assert report.theta_report.is_frame
    assert report.lower_contained and report.upper_contained
    assert report.erratum_log == []
    npt.assert_allclose((report.predicted.lower, report.predicted.upper),
                        (1.0, 1.0), atol=1e-12)


def test_conclusion_is_checked_on_the_family_the_hypothesis_tested(fix_i):
    # theta's subspaces are swapped, but only its local operators enter the
    # hypothesis; the conclusion must be verified on that same family
    (sub0, op0), (sub1, op1) = fix_i.system.members
    swapped = GFusionSystem(fix_i.system.space, ((sub1, op0), (sub0, op1)))
    params = PerturbationParams(0.0, 0.0, 0.0, 0.01, "T-sqsum")
    report = verify_perturbation_theorem(fix_i.system, swapped,
                                         fix_i.operators["k"], params)
    assert report.hypothesis_certified
    assert report.theta_report.is_frame
    assert report.lower_contained and report.upper_contained
    assert report.erratum_log == []


def test_square_sum_scaling_family_exact_bound(fix_i):
    k = fix_i.operators["k"]
    for c in (0.9, 1.05, 1.1):
        exact_r = (c - 1.0) ** 2
        theta = scaled_system(fix_i, c)
        params = PerturbationParams(0.0, 0.0, 0.0, exact_r, "T-sqsum")
        report = verify_perturbation_theorem(fix_i.system, theta, k, params)
        assert report.hypothesis_certified
        assert report.lower_contained and report.upper_contained
        assert report.erratum_log == []
        expected_lower = (1.0 - np.sqrt(exact_r)) ** 2
        expected_upper = (np.sqrt(exact_r) + 1.0) ** 2
        assert report.predicted.lower == pytest.approx(expected_lower, abs=1e-12)
        assert report.predicted.upper == pytest.approx(expected_upper, abs=1e-12)
        assert report.theta_bounds.lower == pytest.approx(c * c, abs=1e-9)
    # the growing direction attains the predicted upper bound exactly
    report = verify_perturbation_theorem(
        fix_i.system, scaled_system(fix_i, 1.1), k,
        PerturbationParams(0.0, 0.0, 0.0, 0.01, "T-sqsum"))
    assert report.theta_bounds.upper == pytest.approx(report.predicted.upper,
                                                      abs=1e-12)
    assert report.theta_bounds.upper == pytest.approx(1.21, abs=1e-12)


def test_square_sum_hypothesis_is_sharp(fix_i):
    theta = scaled_system(fix_i, 1.1)
    k = fix_i.operators["k"]
    below = PerturbationParams(0.0, 0.0, 0.0, 0.00999, "T-sqsum")
    verdict = perturb_hypothesis(fix_i.system, theta, k, below)
    assert verdict.falsified
    with pytest.raises(PreconditionError):
        verify_perturbation_theorem(fix_i.system, theta, k, below)


def test_square_sum_scaling_on_random_fixture():
    bundle = fixture(fix_r_names()[0])
    k = bundle.operators["k"]
    s = frame_operator(bundle.system)
    k_inv = np.linalg.inv(k.matrix)
    m = k_inv @ s @ k_inv.conj().T
    mu = float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[-1])
    c = 1.05
    exact_r = (c - 1.0) ** 2 * mu
    theta = scaled_system(bundle, c)
    params = PerturbationParams(0.0, 0.0, 0.0, exact_r * (1 + 1e-12), "T-sqsum")
    report = verify_perturbation_theorem(bundle.system, theta, k, params)
    assert report.hypothesis_certified
    assert report.theta_report.is_frame
    assert report.lower_contained and report.upper_contained
    assert report.erratum_log == []


def test_inadmissible_parameters_are_logged_not_raised(fix_i):
    theta = scaled_system(fix_i, 1.1)
    params = PerturbationParams(0.0, 0.0, 0.0, 1.5, "T-sqsum")  # R >= A = 1
    report = verify_perturbation_theorem(fix_i.system, theta,
                                         fix_i.operators["k"], params)
    assert report.predicted is None
    kinds = [record["kind"] for record in report.erratum_log]
    assert kinds == ["inadmissible-parameters"]


def test_aggregate_norm_boundary_values(fix_i):
    theta = scaled_system(fix_i, 1.1)
    k = fix_i.operators["k"]
    at_boundary = perturb_hypothesis(
        fix_i.system, theta, k, PerturbationParams(0.0, 0.0, 0.0, 0.21,
                                                   "C-p2-normsum"))
    assert not at_boundary.falsified
    assert abs(at_boundary.worst_violation) <= 1e-12
    below = perturb_hypothesis(
        fix_i.system, theta, k, PerturbationParams(0.0, 0.0, 0.0, 0.20,
                                                   "C-p2-normsum"))
    assert below.falsified
    assert below.worst_violation == pytest.approx(0.01, abs=1e-12)
    assert below.worst_subset == (0,)
    npt.assert_allclose(np.abs(below.worst_probe), [1.0, 0.0], atol=1e-9)


def test_aggregate_norm_predicted_bounds(fix_i):
    theta = scaled_system(fix_i, 1.1)
    params = PerturbationParams(0.0, 0.0, 0.0, 0.21, "C-p2-normsum")
    report = verify_perturbation_theorem(fix_i.system, theta,
                                         fix_i.operators["k"], params)
    # A - R and min(B + R sqrt(B/A), R |k| + sqrt(B))
    assert report.predicted.lower == pytest.approx(0.79, abs=1e-12)
    assert report.predicted.upper == pytest.approx(1.21, abs=1e-12)
    assert report.theta_report.is_frame
    assert report.lower_contained and report.upper_contained
    assert report.erratum_log == []


def test_sqrt_sum_hypothesis_threshold(fix_i):
    theta = scaled_system(fix_i, 1.1)
    k = fix_i.operators["k"]
    # |1 - c^2| = 0.21 against lambda1 + lambda2 c^2 + gamma
    ok = perturb_hypothesis(fix_i.system, theta, k,
                            PerturbationParams(0.1, 0.0, 0.11, 0.0,
                                               "P1-sqrt-sum"))
    assert not ok.falsified
    short = perturb_hypothesis(fix_i.system, theta, k,
                               PerturbationParams(0.1, 0.0, 0.10, 0.0,
                                                  "P1-sqrt-sum"))
    assert short.falsified
    assert short.worst_violation == pytest.approx(0.01, abs=1e-9)


def test_sqrt_sum_predicted_bounds(fix_i):
    theta = scaled_system(fix_i, 1.1)
    params = PerturbationParams(0.1, 0.0, 0.11, 0.0, "P1-sqrt-sum")
    report = verify_perturbation_theorem(fix_i.system, theta,
                                         fix_i.operators["k"], params)
    # A (1 - (l1 + g/sqrt A)) / (1 + l2) and B (1 + l1 + g/sqrt B) / (1 - l2)
    assert report.predicted.lower == pytest.approx(0.79, abs=1e-12)
    assert report.predicted.upper == pytest.approx(1.21, abs=1e-12)
    assert report.lower_contained and report.upper_contained
    assert report.erratum_log == []


def test_predicted_bounds_formulas_direct():
    sq = predicted_bounds(PerturbationParams(0, 0, 0, 0.01, "T-sqsum"),
                          1.0, 1.0, 1.0)
    assert (sq.lower, sq.upper) == (pytest.approx(0.81), pytest.approx(1.21))
    p1 = predicted_bounds(PerturbationParams(0.1, 0.1, 0.0, 0.0, "P1-sqrt-sum"),
                          1.0, 4.0, 1.0)
    assert p1.lower == pytest.approx(1.0 * (1.0 - 0.1) / 1.1)
    assert p1.upper == pytest.approx(4.0 * 1.1 / 0.9)
    agg = predicted_bounds(PerturbationParams(0, 0, 0, 0.2, "C-p2-normsum"),
                           0.5, 2.0, 3.0)
    assert agg.lower == pytest.approx(0.3)
    assert agg.upper == pytest.approx(min(2.0 + 0.2 * 2.0, 0.6 + np.sqrt(2.0)))


def test_variant_gamma_readings_disagree_when_k_norm_is_not_one():
    params = PerturbationParams(0.1, 0.0, 0.2, 0.0, "P-variant-kstar")
    readings = variant_gamma_readings(params, 1.0, 1.0, 2.0)
    assert set(readings) == {"gamma-times-knorm", "gamma-over-knorm"}
    times = readings["gamma-times-knorm"]
    over = readings["gamma-over-knorm"]
    assert times["lower"] == pytest.approx(1.0 - 0.1 - 0.4)
    assert over["lower"] == pytest.approx(1.0 - 0.1 - 0.1)
    assert times["lower"] != over["lower"]


def test_variant_negative_lower_is_rejected():
    # printed admissibility passes while the printed lower bound goes negative
    params = PerturbationParams(0.1, 0.0, 0.4, 0.0, "P-variant-kstar")
    with pytest.raises(InputError):
        predicted_bounds(params, 1.0, 1.0, 3.0)


@pytest.mark.parametrize("mode, term", [("P1-sqrt-sum", "gamma/sqrt(A)"),
                                        ("P-variant-kstar", "gamma/(sqrt(A)|k|)")])
def test_p_mode_parameters_at_the_admissibility_gate_are_rejected(mode, term):
    params = PerturbationParams(0.6, 0.0, 0.5, 0.0, mode)
    with pytest.raises(InputError) as exc:
        predicted_bounds(params, 1.0, 2.0, 1.0)
    assert str(exc.value) == (f"inadmissible parameters: max(lambda1 + {term}, lambda2) "
                              "= 1.1 must stay below 1")


@pytest.mark.parametrize("lambda1, lower, k_norm, gamma", [
    (0.5, 1.1521681836790942, 0.31472586702134514, 0.16891195251755653),
    (0.25, 3.7309675323265044, 0.31342999132761695, 0.45405927244485483),
], ids=["lambda1-half", "lambda1-quarter"])
def test_variant_gate_and_gamma_readings_agree_at_the_boundary(lambda1, lower, k_norm, gamma):
    # lambda1 + (gamma/|k|)/sqrt(A) rounds below 1 here, gamma/(sqrt(A)|k|) does not
    params = PerturbationParams(lambda1, 0.0, gamma, 0.0, "P-variant-kstar")
    readings = variant_gamma_readings(params, lower, 2.0 * lower, k_norm)
    try:
        predicted_bounds(params, lower, 2.0 * lower, k_norm)
        passed = True
    except InputError:
        passed = False
    assert passed == readings["gamma-over-knorm"]["admissible"]


def test_variant_mode_end_to_end(fix_i):
    theta = scaled_system(fix_i, 1.05)
    params = PerturbationParams(0.05, 0.05, 0.11, 0.0, "P-variant-kstar")
    report = verify_perturbation_theorem(fix_i.system, theta,
                                         fix_i.operators["k"], params)
    assert report.theta_report.is_frame
    assert report.gamma_readings is not None
    # |k| = 1 collapses the two readings
    assert report.gamma_readings["gamma-times-knorm"]["lower"] == pytest.approx(
        report.gamma_readings["gamma-over-knorm"]["lower"])
    assert report.lower_contained and report.upper_contained
    assert report.erratum_log == []


def test_aggregate_norm_upper_bound_containment_failure_is_logged():
    system, operators = to_system(spec_document(["6"] + ["3x2"] * 12, 4))
    rng = np.random.default_rng(1)
    theta = [op.matrix * (1.0 + 0.05 * rng.standard_normal(op.matrix.shape))
             for _, op in system.members]
    params = PerturbationParams(0.0, 0.0, 0.0, 1.0, "C-p2-normsum")
    report = verify_perturbation_theorem(system, theta, operators["k"], params)
    assert not report.verdict.falsified
    # the witness of the worst subset finds more than the probes did (-0.150)
    assert report.verdict.worst_violation == pytest.approx(-0.0476, abs=5e-4)
    assert report.verdict.worst_violation >= -0.150
    # the R|k| + sqrt(B) term of the upper bound lies below the measured B'
    assert (report.predicted.lower, report.predicted.upper) == (
        pytest.approx(0.97083, abs=5e-6), pytest.approx(6.19613, abs=5e-6))
    assert (report.theta_bounds.lower, report.theta_bounds.upper) == (
        pytest.approx(1.91940, abs=5e-6), pytest.approx(22.6293, abs=5e-5))
    assert report.lower_contained and not report.upper_contained
    assert [record["kind"] for record in report.erratum_log] == ["bound-containment-failure"]
    assert report.passed


def test_hypothesis_probe_budget(fix_i):
    theta = scaled_system(fix_i, 1.1)
    verdict = perturb_hypothesis(fix_i.system, theta, fix_i.operators["k"],
                                 PerturbationParams(0, 0, 0, 0.02, "T-sqsum"))
    assert not verdict.falsified
    assert verdict.subsets_tested == 3  # nonempty subsets of a 2-member family
    assert verdict.probes_tested >= 200


def test_theta_shape_mismatch_rejected(fix_i, fix_a):
    params = PerturbationParams(0, 0, 0, 0.1, "T-sqsum")
    with pytest.raises(InputError):
        perturb_hypothesis(fix_i.system, fix_a.system, fix_i.operators["k"],
                           params)
    with pytest.raises(InputError):
        perturb_hypothesis(fix_i.system, [np.eye(2)], fix_i.operators["k"],
                           params)


def test_a_complex_theta_or_target_over_a_real_base_is_an_input_error(fix_i):
    params = PerturbationParams(R=0.01, mode="T-sqsum")
    theta = [op.matrix * (1 + 0.01j) for _, op in fix_i.system.members]
    with pytest.raises(InputError, match="complex matrix in a real space"):
        perturbation.perturb_report(fix_i.system, theta, fix_i.operators["k"], params,
                                    tol=DEFAULT_TOL)
    with pytest.raises(InputError, match="complex operator on a system over a real space"):
        perturbation.perturb_report(fix_i.system, scaled_system(fix_i, 1.5),
                                    BoundedOperator(np.diag([1.0, 1j])), params,
                                    tol=DEFAULT_TOL)


# -- T-sqsum is decided by its exact spectral test --------------------------

SQUARE_SUM_SCALES = (1e-6, 1e-5, 1e-3, 1.0, 1e3, 1e6)


def spec_case(c=1.0, members=12):
    """``members`` 3x2 members in dim 6 (``gen --spec 6 3x2 ... --seed 4``), each
    L_j scaled entrywise by 1 + 0.05 N(0, 1), and both families by c."""
    system, operators = to_system(spec_document(["6"] + ["3x2"] * members, 4))
    rng = np.random.default_rng(1)
    theta = [c * op.matrix * (1 + 0.05 * rng.standard_normal(op.matrix.shape))
             for _, op in system.members]
    system = system.with_local_operators([c * op.matrix for _, op in system.members])
    return system, _on_base(system, theta), operators["k"]


def transports():
    """The identity and six seeded orthogonal matrices of dim 6."""
    yield np.eye(6)
    for seed in range(1, 7):
        yield np.linalg.qr(np.random.default_rng(seed).standard_normal((6, 6)))[0]


def transported(system, family, k, u):
    """Base, perturbed family and k moved by an orthogonal u: W_j -> u W_j,
    L_j P_j -> L_j P_j u*, Th_j P_j -> Th_j P_j u* and k -> u k."""
    moved = GFusionSystem(system.space, tuple(
        (WeightedSubspace(u @ sub.basis, sub.weight), LocalOperator(lp @ u.T))
        for (sub, _), lp in zip(system.members, system.local_factors)))
    theta = [tp @ u.T for tp in family.local_factors]
    return moved, _on_base(moved, theta), BoundedOperator(u @ k.matrix)


def narrow_cases(count=20):
    """One member on R^6 with k = I whose gap Delta = L - Th has
    Delta* Delta = Q diag(1.001, 0.1, ..., 0.1) Q*: at R = 1 the hypothesis
    fails by 1e-3, and only near the first column of Q."""
    rng = np.random.default_rng(99)
    for _ in range(count):
        lmat = 2.0 * np.eye(6) + 0.1 * rng.standard_normal((6, 6))
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        yield one_member_case(lmat, np.diag(np.sqrt([1.001] + [0.1] * 5)) @ q.T, np.eye(6))


def one_member_case(lmat, delta, k):
    """One member on R^n with weight 1, local operator L, Th = L - Delta, and k."""
    n = lmat.shape[0]
    system = GFusionSystem(HilbertSpace("real", n), (
        (WeightedSubspace(np.eye(n), 1.0), LocalOperator(lmat)),))
    return system, _on_base(system, [lmat - delta]), BoundedOperator(k)


def square_sum_margin(system, family, k, r):
    """R kk* - S_delta, with S_delta summed member by member."""
    s_delta = sum(w2 * adjoint(lp - tp) @ (lp - tp)
                  for w2, lp, tp in _member_data(system, family))
    return r * k.matrix @ adjoint(k.matrix) - s_delta


def exact_square_sum_falsified(system, family, k, r):
    """not psd_check(R kk* - S_delta)."""
    return not psd_check(square_sum_margin(system, family, k, r))


def test_square_sum_finds_a_narrow_violation():
    params = PerturbationParams(0.0, 0.0, 0.0, 1.0, "T-sqsum")
    for system, family, k in narrow_cases():
        report = perturbation.perturb_report(system, family, k, params, tol=DEFAULT_TOL)
        assert report.verdict.falsified
        assert report.verdict.worst_violation == pytest.approx(1e-3, rel=1e-9)
        assert report.verdict.worst_subset == (0,)


def test_square_sum_verdict_does_not_depend_on_the_basis():
    params = PerturbationParams(0.0, 0.0, 0.0, 0.058, "T-sqsum")
    worst = []
    for u in transports():
        verdict = perturb_hypothesis(*transported(*spec_case(), u), params)
        assert verdict.falsified
        assert verdict.worst_subset == tuple(range(12))
        worst.append(verdict.worst_violation)
    npt.assert_allclose(worst, worst[0], rtol=1e-12, atol=0.0)


def fix_r_square_sum_cases():
    """Each FIX-R system, nudged, at R one part in 1e6 either side of the
    least R for which S_delta <= R kk* holds, and at R = 0."""
    for name in fix_r_names():
        bundle = fixture(name)
        system, k = bundle.system, bundle.operators["k"]
        family = _on_base(system, nudged(system))
        gaps = system.with_local_operators(
            [lp - tp for lp, tp in zip(system.local_factors, family.local_factors)])
        k_inv = np.linalg.pinv(k.matrix)
        pulled = k_inv @ frame_operator(gaps) @ adjoint(k_inv)
        least = float(np.linalg.eigvalsh((pulled + adjoint(pulled)) / 2.0)[-1])
        for r in (0.0, least * (1.0 - 1e-6), least * (1.0 + 1e-6)):
            yield (system, family, k), r


def test_square_sum_verdict_is_the_exact_spectral_test():
    cases = [(case, 1.0) for case in narrow_cases()]
    cases += [(transported(*spec_case(), u), r)
              for u in transports() for r in (0.058, 0.5)]
    cases += list(fix_r_square_sum_cases())
    verdicts = []
    for (system, family, k), r in cases:
        verdict = perturb_hypothesis(system, family, k,
                                     PerturbationParams(0.0, 0.0, 0.0, r, "T-sqsum"))
        assert verdict.falsified is exact_square_sum_falsified(system, family, k, r)
        verdicts.append(verdict.falsified)
    assert 0 < sum(verdicts) < len(verdicts)


def test_square_sum_verdict_is_scale_covariant():
    # L, Th -> cL, cTh with R -> c^2 R moves every term by c^2, and the worst
    # violation with them; below c = 1e-3 the absolute part of the tolerance
    # decides the verdict instead
    for r in (0.058, 0.5):
        params = PerturbationParams(0.0, 0.0, 0.0, r, "T-sqsum")
        reference = perturb_hypothesis(*spec_case(), params)
        for c in SQUARE_SUM_SCALES:
            scaled = PerturbationParams(0.0, 0.0, 0.0, r * c * c, "T-sqsum")
            verdict = perturb_hypothesis(*spec_case(c), scaled)
            if c >= 1e-3:
                assert verdict.falsified is reference.falsified
            assert verdict.worst_subset == reference.worst_subset
            assert verdict.worst_violation / (c * c) == pytest.approx(
                reference.worst_violation, rel=1e-9)


@pytest.mark.parametrize("s_delta, k_diag, worst", [
    ([1 + 1e-5, 0.0], [1.0, 1e3], 1e-5),
    ([1e6 + 2e-5, 1 + 1e-5, 0.0], [1e3, 1.0, 1e3], 2e-5),
], ids=["at-the-witness", "below-the-witness-scale"])
def test_square_sum_falsifies_a_pair_that_clears_an_anisotropic_psd_floor(s_delta, k_diag,
                                                                          worst):
    # the eigenvalue 1e6 of kk* - S_delta lifts psd_check's floor to -1e-3, far
    # below the violation, while each pair is judged at its own scale 1 + lhs + rhs;
    # in the second case the witness e1 clears its scale 2e6 and only e2 fails
    n = len(s_delta)
    case = one_member_case(2.0 * np.eye(n), np.diag(np.sqrt(s_delta)), np.diag(k_diag))
    assert not exact_square_sum_falsified(*case, 1.0)
    verdict = perturb_hypothesis(*case, PerturbationParams(0.0, 0.0, 0.0, 1.0, "T-sqsum"))
    assert verdict.falsified
    assert verdict.worst_violation == pytest.approx(worst, rel=1e-4)


def test_square_sum_reports_the_exact_violation_its_kernel_rounds_away():
    # |L| ~ 1e8 and an exact violation of about 3e-9: L f - Th f cancels every
    # digit of it, so the kernel reads no gap above 0 while psd_check fails
    rng = np.random.default_rng(8)
    lmat = 1e8 * (np.eye(2) + 0.1 * rng.standard_normal((2, 2)))
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    case = one_member_case(lmat, np.diag(np.sqrt([1 + 5e-9, 0.1])) @ q.T, np.eye(2))
    violation = -np.linalg.eigvalsh(square_sum_margin(*case, 1.0))[0]
    assert exact_square_sum_falsified(*case, 1.0)
    report = perturbation.perturb_report(*case, PerturbationParams(0.0, 0.0, 0.0, 1.0, "T-sqsum"),
                                         tol=DEFAULT_TOL)
    assert report.verdict.falsified
    assert report.verdict.worst_violation >= violation * (1.0 - 1e-9) > 0.0
    assert report.verdict.worst_subset == (0,)


# -- the probe-block kernel against the one-probe, member-by-member loop ----


def reference_violations(masks, data, k_mat, f, params):
    """lhs - rhs and scale for every subset mask at one probe, member by member.

    A subset norm sums the squares of its sum's entries by one reduce over
    the dim axis of a contiguous (1, dim, subsets) array, as the kernel does
    for one probe alone.
    """
    lam1, lam2, gamma, r = params.lambda1, params.lambda2, params.gamma, params.R
    weights = masks.astype(float)

    def subset_norms(rows):
        sums = np.ascontiguousarray((weights @ rows).T)[None]
        squares = (np.conj(sums) * sums).real if np.iscomplexobj(sums) else sums * sums
        return np.sqrt(np.add.reduce(squares, axis=-2))[0]

    diff_rows = np.array([w2 * (adjoint(lp) @ (lp @ f) - adjoint(tp) @ (tp @ f))
                          for w2, lp, tp in data])
    kf_norm = float(np.linalg.norm(adjoint(k_mat) @ f))
    if params.mode is PerturbationMode.SQUARE_SUM:
        sq = np.array([w2 * float(np.linalg.norm(lp @ f - tp @ f))**2
                       for w2, lp, tp in data])
        lhs = weights @ sq
        rhs = np.full_like(lhs, r * kf_norm**2)
        return lhs - rhs, 1.0 + lhs + rhs
    lhs = subset_norms(diff_rows)
    if params.mode is PerturbationMode.AGGREGATE_NORM:
        rhs = np.full_like(lhs, r * kf_norm)
        return lhs - rhs, 1.0 + lhs + rhs
    base_rows = np.array([w2 * (adjoint(lp) @ (lp @ f)) for w2, lp, tp in data])
    pert_rows = np.array([w2 * (adjoint(tp) @ (tp @ f)) for w2, lp, tp in data])
    rhs = lam1 * subset_norms(base_rows)
    rhs = rhs + lam2 * subset_norms(pert_rows)
    if params.mode is PerturbationMode.SQRT_SUM:
        q = np.array([w2 * float(np.linalg.norm(lp @ f))**2 for w2, lp, tp in data])
        rhs = rhs + gamma * np.sqrt(weights @ q)
    else:
        rhs = rhs + gamma * kf_norm
    return lhs - rhs, 1.0 + lhs + rhs


def assert_bits(value, reference):
    assert value.dtype == reference.dtype and value.shape == reference.shape
    assert value.tobytes() == reference.tobytes()


def nudged(system, eps=0.05, seed=11):
    """Each L_j moved by eps times a seeded draw of the system's field."""
    rng = np.random.Generator(np.random.PCG64(seed))
    operators = []
    for _, op in system.members:
        g = rng.standard_normal(op.matrix.shape)
        if np.iscomplexobj(op.matrix):
            g = g + 1j * rng.standard_normal(op.matrix.shape)
        operators.append(op.matrix + eps * g)
    return system.with_local_operators(operators)


def fourteen_member_system():
    # past the exhaustive limit: the search walks the sampled 512 subsets
    rng = np.random.Generator(np.random.PCG64(14))
    members = []
    for j in range(14):
        basis, _ = np.linalg.qr(rng.standard_normal((3, 1 + j % 3)))
        members.append((WeightedSubspace(basis, 1.0 + 0.1 * j),
                        LocalOperator(rng.standard_normal((2, 3)))))
    return GFusionSystem(HilbertSpace("real", 3), tuple(members))


def interleaved_complex_system():
    # factor shapes interleave by member index, so each shape group's columns
    # are scattered through the member order
    rng = np.random.Generator(np.random.PCG64(6))
    members = []
    for j, rows in enumerate((2, 1, 3, 1, 2, 3)):
        draw = rng.standard_normal((3, 1 + j % 3)) + 1j * rng.standard_normal((3, 1 + j % 3))
        basis, _ = np.linalg.qr(draw)
        op = rng.standard_normal((rows, 3)) + 1j * rng.standard_normal((rows, 3))
        members.append((WeightedSubspace(basis, 1.0 + 0.1 * j), LocalOperator(op)))
    return GFusionSystem(HilbertSpace("complex", 3), tuple(members))


def twelve_member_system():
    # the exhaustive limit: the search walks all 4,095 subsets, in two shape groups
    rng = np.random.Generator(np.random.PCG64(12))
    members = []
    for j in range(12):
        basis, _ = np.linalg.qr(rng.standard_normal((4, 1 + j % 3)))
        members.append((WeightedSubspace(basis, 1.0 + 0.1 * j),
                        LocalOperator(rng.standard_normal((1 + j % 2, 4)))))
    return GFusionSystem(HilbertSpace("real", 4), tuple(members))


def complex_dim10_system():
    # dim 10: each subset norm sums 10 squares, past numpy norm's in-turn order
    rng = np.random.Generator(np.random.PCG64(10))
    members = []
    for j, (m, rows) in enumerate(((4, 3), (6, 2), (3, 5), (10, 4), (5, 3))):
        basis, _ = np.linalg.qr(rng.standard_normal((10, m)) + 1j * rng.standard_normal((10, m)))
        op = rng.standard_normal((rows, 10)) + 1j * rng.standard_normal((rows, 10))
        members.append((WeightedSubspace(basis, 0.5 + 0.25 * j), LocalOperator(op)))
    return GFusionSystem(HilbertSpace("complex", 10), tuple(members))


def kernel_case(system, trials=8):
    family = nudged(system)
    complex_field = system.space.field == "complex"
    probes = unit_probes(system.dim, trials, complex_field=complex_field, seed=0xFA15)
    return subset_masks(system.size), _member_data(system, family), probes


def assert_kernel_matches_reference(system, k_mat):
    masks, data, probes = kernel_case(system)
    work = perturbation._Workspace(masks, data)
    for params in MODE_PARAMS:
        gaps, scales = _violations(work, k_mat, probes, params)
        assert gaps.shape == scales.shape == (probes.shape[0], masks.shape[0])
        for f, row_gaps, row_scales in zip(probes, gaps, scales):
            ref_gaps, ref_scales = reference_violations(masks, data, k_mat, f, params)
            assert_bits(row_gaps, ref_gaps)
            assert_bits(row_scales, ref_scales)


@pytest.mark.parametrize("name", packaged_fixture_names())
def test_block_kernel_matches_member_loop_on_fixtures(name):
    system, operators = to_system(load_packaged_fixture(name))
    assert_kernel_matches_reference(system, operators["k"].matrix)


@pytest.mark.parametrize("name", ["real-dim16", "complex-dim10"])
def test_block_kernel_matches_member_loop_past_eight_rows(name):
    if name == "real-dim16":
        # the reference system of the timings, cut to its first 6 members
        document = spec_document(["16", "4x3", "5x4", "6x2", "3x5", "8x3", "2x2"], 3)
        system, operators = to_system(document)
        k_mat = operators["k"].matrix
    else:
        system = complex_dim10_system()
        k_mat = np.diag(np.linspace(0.5, 2.0, 10)) + 0.25j * np.eye(10, k=1)
    assert system.dim > 8
    assert_kernel_matches_reference(system, k_mat)


def test_block_kernel_matches_member_loop_on_sampled_subsets():
    system = fourteen_member_system()
    assert subset_masks(system.size).shape == (frame_ops.SAMPLED_SUBSETS, 14)
    assert_kernel_matches_reference(system, np.eye(3))


def test_block_kernel_matches_member_loop_on_interleaved_factor_shapes():
    system = interleaved_complex_system()
    work = perturbation._Workspace(*kernel_case(system)[:2])
    assert [list(group[0]) for group in work.groups] == [[0, 4], [1, 3], [2, 5]]
    k_mat = np.diag([1.0, 0.5 + 0.5j, 2.0j])
    assert_kernel_matches_reference(system, k_mat)


@pytest.mark.parametrize("name", ["FIX-R003", "FIX-R005"])
def test_block_kernel_does_not_depend_on_the_blocking(name):
    system, operators = to_system(load_packaged_fixture(name))
    masks, data, probes = kernel_case(system, trials=20)
    work = perturbation._Workspace(masks, data)
    k_mat = operators["k"].matrix
    for params in MODE_PARAMS:
        whole = _violations(work, k_mat, probes, params)
        single = [_violations(work, k_mat, probes[i:i + 1], params)
                  for i in range(probes.shape[0])]
        for part, together in zip(zip(*single), whole):
            assert_bits(np.concatenate(part), together)


def search_case(name):
    """(system, k) of a search: a real fixture, a complex system whose shape groups
    interleave, the 14-member system whose subsets are sampled, or the 12-member
    system at the exhaustive limit."""
    if name == "interleaved":
        return interleaved_complex_system(), BoundedOperator(np.diag([1.0, 0.5 + 0.5j, 2.0j]))
    if name == "fourteen-members":
        return fourteen_member_system(), BoundedOperator(np.eye(3))
    if name == "twelve-members":
        build, k_mat = SEARCH_CASES["real-m12"]
        return build(), BoundedOperator(k_mat)
    bundle = fixture(name)
    return bundle.system, bundle.operators["k"]


@pytest.mark.parametrize("name", ["FIX-R003", "interleaved", "fourteen-members"])
def test_member_stage_of_all_probes_has_the_bits_of_each_probe_alone(name):
    system, k = search_case(name)
    masks, data, probes = kernel_case(system, trials=20)
    for params in MODE_PARAMS:
        work = perturbation._Workspace(masks, data)
        whole = perturbation._member_terms(work, k.matrix, probes, params)
        single = [perturbation._member_terms(work, k.matrix, probes[i:i + 1], params)
                  for i in range(probes.shape[0])]
        assert len(whole) == {"P1-sqrt-sum": 5, "P-variant-kstar": 4}.get(params.mode.value, 2)
        for part, together in zip(zip(*single), whole):
            assert_bits(np.concatenate(part), together)


@pytest.mark.parametrize("name", ["FIX-R003", "interleaved", "fourteen-members"])
@pytest.mark.parametrize("params", MODE_PARAMS, ids=lambda p: p.mode.value)
def test_search_does_not_depend_on_the_blocking(name, params, monkeypatch):
    system, k = search_case(name)
    family = nudged(system)
    verdicts = []
    # one probe per block, the default blocks, and one block for all probes
    for entries in (1, perturbation.PROBE_BLOCK_ENTRIES, 2**40):
        monkeypatch.setattr(perturbation, "PROBE_BLOCK_ENTRIES", entries)
        v = perturb_hypothesis(system, family, k, params)
        verdicts.append((v.falsified, v.worst_violation, v.worst_subset, v.probes_tested,
                         v.worst_probe.dtype, v.worst_probe.tobytes()))
    assert verdicts[0] == verdicts[1] == verdicts[2]


@pytest.mark.parametrize("params", MODE_PARAMS, ids=lambda p: p.mode.value)
def test_duplicate_probe_across_a_block_boundary_keeps_the_earliest(params, monkeypatch):
    bundle = fixture("FIX-R005")
    system, k = bundle.system, bundle.operators["k"]
    masks, data, probes = kernel_case(system, trials=12)
    gaps, _ = _violations(perturbation._Workspace(masks, data), k.matrix, probes, params)
    first = int(np.argmax(gaps.max(axis=1)))
    # -f has the same gap as f at every subset; it opens the next block
    crafted = np.insert(probes, first + 1, -probes[first], axis=0)
    monkeypatch.setattr(perturbation, "unit_probes", lambda *args, **kwargs: crafted)
    monkeypatch.setattr(perturbation, "PROBE_BLOCK_ENTRIES",
                        (first + 1) * masks.shape[0] * system.dim)
    # every mode evaluates one more probe after the blocks, the top eigenvector of its
    # witness matrix; made a third copy of the worst probe, with that worst gap as
    # T-sqsum's exact eigenvalue, it keeps the earliest too
    eigs = []
    monkeypatch.setattr(perturbation, "psd_eig", lambda m, tol: eigs.append(m) or (
        True, np.array([-gaps.max()]), -probes[first][:, None]))
    verdict = perturb_hypothesis(system, _on_base(system, nudged(system)), k, params)
    assert len(eigs) == 1
    assert verdict.probes_tested == crafted.shape[0] + 1
    assert verdict.worst_violation == float(gaps.max())
    assert_bits(verdict.worst_probe, probes[first])


# (system builder, k) of the searches whose verdicts tests/data/perturb_verdicts.json pins
SEARCH_CASES = {
    "real-m12": (twelve_member_system, np.diag([0.5, 1.0, 1.5, 2.0])),
    "complex-m6": (interleaved_complex_system, np.diag([1.0, 0.5 + 0.5j, 2.0j])),
    "sampled-m14": (fourteen_member_system, np.eye(3)),
}


def search_verdicts():
    """The pinned fields of every search of SEARCH_CASES, at two perturbation sizes.

    ``json.dumps(search_verdicts())`` wrote tests/data/perturb_verdicts.json.
    """
    rows = {}
    for name, (build, k_mat) in SEARCH_CASES.items():
        system = build()
        for eps in (0.002, 0.5):
            family = nudged(system, eps)
            for params in MODE_PARAMS:
                verdict = perturb_hypothesis(system, family, BoundedOperator(k_mat), params)
                rows[f"{name}:{eps}:{params.mode.value}"] = {
                    "falsified": verdict.falsified,
                    "worst_violation": verdict.worst_violation.hex(),
                    "worst_subset": list(verdict.worst_subset),
                    "probes_tested": verdict.probes_tested}
    return rows


def test_search_verdicts_match_the_pinned_ones():
    pinned = json.loads((DATA_DIR / "perturb_verdicts.json").read_text(encoding="utf-8"))
    assert search_verdicts() == pinned


def climbed(system, family, k, params):
    """Whether the search as it ended before its witness falsifies: the sweep, then a
    40-step random climb from the sweep's worst probe (PCG64 seed 0xA5CE17, steps of
    0.25 halved on each step that gains nothing, down to 1e-6), one probe per step
    over every subset."""
    work = perturbation._Workspace(subset_masks(system.size), _member_data(system, family))
    complex_field = system.space.field == "complex"
    falsified = False

    def tested(fs):
        nonlocal falsified
        gaps, scales = _violations(work, k.matrix, fs, params)
        falsified |= bool((~at_most(gaps, 0.0, scales, DEFAULT_TOL) & ~np.isnan(gaps)).any())
        return np.nanmax(gaps, axis=1)

    probes = unit_probes(system.dim, perturbation.RANDOM_PROBES, complex_field=complex_field,
                         seed=0xFA15)
    worst, f = -np.inf, None
    for probe, gap in zip(probes, tested(probes)):
        if f is None or gap > worst + 1e-12 * max(1.0, abs(worst)):
            worst, f = gap, probe
    step, rng = 0.25, np.random.Generator(np.random.PCG64(0xA5CE17))
    for _ in range(40):
        direction = rng.standard_normal(system.dim)
        if complex_field:
            direction = direction + 1j * rng.standard_normal(system.dim)
        candidate = f + step * direction
        candidate /= np.linalg.norm(candidate)
        gap = tested(candidate[None, :])[0]
        if gap > worst:
            worst, f = gap, candidate
        else:
            step *= 0.5
            if step < 1e-6:
                break
    return falsified


SEARCHED_PARAMS = MODE_PARAMS[:3] + [
    PerturbationParams(0.2, 0.2, gamma, 0.0, mode)
    for gamma in (0.01, 0.001) for mode in ("P1-sqrt-sum", "P-variant-kstar")]
# (eps, nudge seed, params) of searches past the default ones: the climb falsifies the
# first at +0.166, where the sqrt-sum witness with equal weights on its three terms
# (the factor 3) reads -0.036
FURTHER_SEARCHES = {
    "real-m12": [(0.5, 5, PerturbationParams(0.2, 0.2, 7.461, 0.0, "P-variant-kstar"))],
}


@pytest.mark.parametrize("name", SEARCH_CASES)
def test_the_witness_falsifies_every_search_the_climb_did(name):
    build, k_mat = SEARCH_CASES[name]
    system, k = build(), BoundedOperator(k_mat)
    searches = [(eps, 11, params) for eps in (0.002, 0.5) for params in SEARCHED_PARAMS]
    verdicts = []
    for eps, seed, params in searches + FURTHER_SEARCHES.get(name, []):
        family = nudged(system, eps, seed)
        verdicts.append((climbed(system, family, k, params),
                         perturb_hypothesis(system, family, k, params).falsified))
    assert all(new for old, new in verdicts if old)
    assert any(old for old, _ in verdicts) and not all(old for old, _ in verdicts)


@pytest.mark.parametrize("name", SEARCH_CASES)
def test_a_falsified_witness_reads_at_least_the_sweep_at_its_subset(name, monkeypatch):
    # the sweep's worst gap enters the sqrt-sum M as a fourth term, so the witness's own
    # gap at the sweep's worst subset is at least that gap, up to rounding
    build, k_mat = SEARCH_CASES[name]
    system, k = build(), BoundedOperator(k_mat)
    family = _on_base(system, nudged(system, 0.5))
    masks = subset_masks(system.size)
    work = perturbation._Workspace(masks, _member_data(system, family))
    calls, witness = [], perturbation._witness
    monkeypatch.setattr(perturbation, "_witness", lambda *args: calls.append(args) or (
        witness(*args)))
    for params in MODE_PARAMS[:2]:
        assert perturb_hypothesis(system, family, k, params).falsified
        *_, row, probe, excess = calls.pop()
        assert excess > 0
        _, _, v = psd_eig(-witness(system, family, k, params, row, probe, excess),
                          DEFAULT_TOL)
        gaps, _ = _violations(work, k.matrix, v[:, :1].T, params)
        column = int(np.flatnonzero((masks == row).all(1))[0])
        assert gaps[0, column] >= excess * (1 - 1e-9)
        # the witness is built at the row and probe where the sweep read its worst gap
        assert _violations(work, k.matrix, probe[None], params)[0][0, column] == excess


def test_the_witness_falsification_holds_member_by_member():
    # the one pinned verdict the witness flips: the climb left it at -0.0166
    system, k_mat = SEARCH_CASES["complex-m6"][0](), SEARCH_CASES["complex-m6"][1]
    family = nudged(system, 0.002)
    params = MODE_PARAMS[0]
    verdict = perturb_hypothesis(system, family, BoundedOperator(k_mat), params)
    assert verdict.falsified and verdict.worst_subset == (1,)
    masks = subset_masks(system.size)
    gaps, scales = reference_violations(masks, _member_data(system, family), k_mat,
                                        verdict.worst_probe, params)
    worst = int(np.argmax(gaps))
    assert tuple(np.flatnonzero(masks[worst])) == (1,)
    assert gaps[worst] == verdict.worst_violation == pytest.approx(0.00250, abs=1e-5)
    assert scales[worst] == pytest.approx(1.004, abs=5e-4)
    assert not at_most(gaps[worst], 0.0, scales[worst], DEFAULT_TOL)


@pytest.mark.parametrize("members, r, falsified", [
    (12, 0.90, True), (12, 0.95, False), (14, 1.4, True),
], ids=["m12-falsified", "m12-holds", "m14-sampled"])
def test_aggregate_norm_witness_finds_the_exact_maximum(members, r, falsified):
    # max_I |D_I pinv(k*)| is 0.9434 at 12 members and 1.4796 at 14, where the probes
    # alone read -0.046 at R = 0.90 and -0.091 over the 512 sampled subsets at R = 1.4;
    # L, Th -> cL, cTh with R -> c^2 R keeps each verdict, with no overflow at c = 1e50
    for c in (1.0, 1e50):
        verdict = perturb_hypothesis(*spec_case(c, members),
                                     PerturbationParams(R=r * c * c, mode="C-p2-normsum"))
        assert verdict.falsified is falsified
        assert verdict.probes_tested == 6 + perturbation.RANDOM_PROBES + 1


# -- the bound stage of the two sqrt-sum modes --------------------------------

SQRT_SUM_PARAMS = MODE_PARAMS[:2]


def dim16_case():
    """The reference system of the timings cut to its first 6 members: real, dim 16."""
    system, operators = to_system(
        spec_document(["16", "4x3", "5x4", "6x2", "3x5", "8x3", "2x2"], 3))
    return system, operators["k"].matrix


def bound_stage(system, family, k_mat, params, probes):
    """The subset-stage inputs of a probe set and its bound terms."""
    work = perturbation._Workspace(subset_masks(system.size), _member_data(system, family))
    members = perturbation._member_terms(work, k_mat, probes, params)
    return work, members, perturbation._bound_terms(members, probes, params)


def gaps_and_bounds(system, family, k_mat, params):
    """Every (probe, subset) gap of a search's probe set and its bound, a block at a time."""
    probes = unit_probes(system.dim, perturbation.RANDOM_PROBES,
                         complex_field=system.space.field == "complex", seed=0xFA15)
    subsets = subset_masks(system.size).shape[0]
    block = max(1, perturbation.PROBE_BLOCK_ENTRIES // (subsets * system.dim))
    gaps, bounds = [], []

    def undecided(b):
        bounds.append(b.copy())
        return np.ones(b.shape, bool)  # every pair formed: the gaps of the unbounded stage

    for start in range(0, probes.shape[0], block):
        fs = probes[start:start + block]
        work, members, terms = bound_stage(system, family, k_mat, params, fs)
        gaps.append(_violations(work, k_mat, fs, params, members, (terms, undecided))[0])
        assert_bits(gaps[-1], _violations(work, k_mat, fs, params)[0])
    return np.concatenate(gaps), np.concatenate(bounds)


def scalar_system(field, scales):
    """Members ``c_j I`` on the whole of a dim-8 space: every member term is parallel
    to the probe, so Cauchy-Schwarz holds with equality and only the rounding
    allowance keeps a gap below its bound."""
    eye = np.eye(8, dtype=HilbertSpace(field, 8).dtype)
    return GFusionSystem(HilbertSpace(field, 8), tuple(
        (WeightedSubspace(np.eye(8), 1.0 + 0.1 * j), LocalOperator(c * eye))
        for j, c in enumerate(scales)))


def bound_case(name, eps):
    """(system, family, k) of a bound-stage test at perturbation size ``eps``."""
    if name.startswith("scalar-"):
        scales = np.linspace(0.5, 2.0, 6)
        moved = scales * (1.0 + eps * np.cos(np.arange(6.0)))
        field = name.split("-")[1]
        return scalar_system(field, scales), scalar_system(field, moved), np.eye(8)
    system, k_mat = dim16_case() if name == "real-dim16" else (
        SEARCH_CASES[name][0](), SEARCH_CASES[name][1])
    return system, nudged(system, eps), k_mat


@pytest.mark.parametrize("name", [*SEARCH_CASES, "real-dim16", "scalar-real", "scalar-complex"])
@pytest.mark.parametrize("params", SQRT_SUM_PARAMS, ids=lambda p: p.mode.value)
def test_every_gap_is_at_most_its_bound(name, params, monkeypatch):
    for eps in (0.002, 0.5):
        case = bound_case(name, eps)
        gaps, bounds = gaps_and_bounds(*case, params)
        assert not np.isnan(bounds).any()
        assert (gaps <= bounds).all()
        # and the bound decides most pairs against the worst gap
        assert np.mean(bounds <= gaps.max()) > 0.5
        if name.startswith("scalar-"):  # where the allowance is needed
            monkeypatch.setattr(perturbation, "rounding_bound",
                                lambda count, magnitude: np.zeros_like(magnitude))
            assert (gaps > gaps_and_bounds(*case, params)[1]).any()
            monkeypatch.undo()


@pytest.mark.parametrize("name", ["FIX-R003", "interleaved", "fourteen-members",
                                  "twelve-members"])
@pytest.mark.parametrize("params", MODE_PARAMS, ids=lambda p: p.mode.value)
def test_the_bound_stage_changes_no_verdict(name, params, monkeypatch):
    system, k = search_case(name)
    family = nudged(system)
    formed, sum_norms, violations = [], perturbation._sum_norms, perturbation._violations

    def counted(work, k_mat, probes, prm, members=None, bound=None):
        widths = []
        monkeypatch.setattr(perturbation, "_sum_norms", lambda vectors, weights: (
            widths.append(weights.shape[1]) or sum_norms(vectors, weights)))
        result = violations(work, k_mat, probes, prm, members, bound)
        monkeypatch.setattr(perturbation, "_sum_norms", sum_norms)
        if bound is not None:
            # the lhs of every subset, then the two right-hand norms of the gathered
            # columns, if any, never more than the block's subsets
            subsets = work.weights.shape[0]
            assert widths[0] == subsets and widths[1:2] == widths[2:]
            assert all(width <= subsets for width in widths)
            formed.append(widths[1] / subsets if len(widths) > 1 else 0.0)
        return result

    def verdicts():
        rows = []
        for entries in (1, perturbation.PROBE_BLOCK_ENTRIES, 2**40):
            monkeypatch.setattr(perturbation, "PROBE_BLOCK_ENTRIES", entries)
            v = perturb_hypothesis(system, family, k, params)
            rows.append((v.falsified, v.worst_violation, v.worst_subset, v.probes_tested,
                         v.worst_probe.dtype, v.worst_probe.tobytes()))
        return rows

    monkeypatch.setattr(perturbation, "_violations", counted)
    bounded = verdicts()
    # only the sqrt-sum modes bound their pairs, and there the bound decides most
    assert bool(formed) is (params in SQRT_SUM_PARAMS)
    assert not formed or min(formed) < 0.5
    monkeypatch.setattr(perturbation, "_violations", lambda *args: violations(*args[:5]))
    assert verdicts() == bounded


def witness_at(monkeypatch, probe):
    """Make ``probe`` the witness of every search: the e2 a diagonal case's M would give
    falsifies by itself, so a test of the sweep's bounds pins e1, which cannot."""
    monkeypatch.setattr(perturbation, "psd_eig", lambda m, tol: (
        True, np.zeros(1), np.array(probe, dtype=float)[:, None]))


def test_a_bound_below_the_worst_gap_settles_no_pair_that_could_falsify(monkeypatch):
    # probe e1 finds subset {0} at a gap of 1e-6, within tolerance at its scale of
    # 7e4; probe e2 finds subset {1} at a gap of 1e-8, which fails at its scale of
    # 1.7, though its bound lies below the worst gap found so far
    def system(a2, b2):
        e = np.eye(2)
        return GFusionSystem(HilbertSpace("real", 2), (
            (WeightedSubspace(e[:, :1], 1.0), LocalOperator([[np.sqrt(a2), 0.0]])),
            (WeightedSubspace(e[:, 1:], 1.0), LocalOperator([[0.0, np.sqrt(b2)]]))))

    monkeypatch.setattr(perturbation, "unit_probes", lambda *args, **kwargs: np.eye(2))
    monkeypatch.setattr(perturbation, "PROBE_BLOCK_ENTRIES", 1)
    witness_at(monkeypatch, [1.0, 0.0])
    verdict = perturb_hypothesis(system(1e5, 1.0),
                                 system((0.8e5 - 1e-6) / 1.2, (0.8 - 1e-8) / 1.2),
                                 BoundedOperator(np.eye(2)),
                                 PerturbationParams(0.2, 0.2, 0.0, 0.0, "P1-sqrt-sum"))
    assert verdict.falsified and verdict.probes_tested == 3
    assert verdict.worst_subset == (0,)
    assert verdict.worst_violation == pytest.approx(1e-6, rel=1e-3)


@pytest.mark.parametrize("name", ["real-dim16", "complex-dim10"])
@pytest.mark.parametrize("params", SQRT_SUM_PARAMS, ids=lambda p: p.mode.value)
def test_a_block_that_keeps_one_subset_keeps_its_bits(name, params):
    if name == "real-dim16":
        system, k_mat = dim16_case()
    else:
        system = complex_dim10_system()
        k_mat = np.diag(np.linspace(0.5, 2.0, 10)) + 0.25j * np.eye(10, k=1)
    family = nudged(system)
    probes = kernel_case(system)[2]
    work, members, terms = bound_stage(system, family, k_mat, params, probes)
    gaps, scales = _violations(work, k_mat, probes, params)
    # the pairs whose base norm, summed as a lone column, rounds otherwise
    sums = np.matmul(members[2].transpose(0, 2, 1), work.weights_t)
    lone = np.stack([column_norms(sums[..., s:s + 1])[:, 0] for s in range(sums.shape[2])], 1)
    traps = np.argwhere(lone != column_norms(sums))
    assert len(traps) > 0
    for i, s in traps[::max(1, len(traps) // 8)]:
        pending = np.zeros(gaps.shape, bool)
        pending[i, s] = True
        kept_gaps, kept_scales = _violations(work, k_mat, probes, params, members,
                                             (terms, lambda b: pending))
        # its column is formed at every probe, with the full sweep's bits
        assert_bits(kept_gaps[:, s], gaps[:, s])
        assert_bits(kept_scales[:, s], scales[:, s])
        assert (np.delete(kept_gaps, s, axis=1) == -np.inf).all()


# -- the row stage of C-p2-normsum and T-sqsum ---------------------------------

ROW_PARAMS = MODE_PARAMS[2:]


def row_gaps_and_bounds(system, family, k_mat, params):
    """Each probe's worst gap over its row, a block at a time, and its row bound."""
    probes = unit_probes(system.dim, perturbation.RANDOM_PROBES,
                         complex_field=system.space.field == "complex", seed=0xFA15)
    masks, data = subset_masks(system.size), _member_data(system, family)
    work = perturbation._Workspace(masks, data)
    members = perturbation._member_terms(work, k_mat, probes, params)
    gaps = [_violations(work, k_mat, probes[s:s + 8], params,
                        [a[s:s + 8] for a in members])[0].max(axis=1)
            for s in range(0, probes.shape[0], 8)]
    return np.concatenate(gaps), perturbation._row_bounds(members, params)


@pytest.mark.parametrize("name", [*SEARCH_CASES, "real-dim16", "scalar-real", "scalar-complex"])
@pytest.mark.parametrize("params", ROW_PARAMS, ids=lambda p: p.mode.value)
def test_every_gap_is_at_most_its_row_bound(name, params, monkeypatch):
    tight = name.startswith("scalar-")
    exceeded = []
    for eps in (0.002, 0.5):
        case = bound_case(name, eps)
        gaps, bounds = row_gaps_and_bounds(*case, params)
        assert not np.isnan(bounds).any()
        assert (gaps <= bounds).all()
        if not tight:
            # and the bound settles most rows against the worst gap
            assert np.mean(bounds <= gaps.max()) > 0.5
            continue
        # members c_j I: the full set (T-sqsum) or the members of one sign (C-p2) attain
        # the bound, so only the rounding allowance keeps a gap below it
        assert np.all(gaps >= bounds - 1e-13 * np.maximum(1.0, np.abs(bounds)))
        monkeypatch.setattr(perturbation, "rounding_bound",
                            lambda count, magnitude: np.zeros_like(magnitude))
        exceeded.append((gaps > row_gaps_and_bounds(*case, params)[1]).any())
        monkeypatch.undo()
    assert any(exceeded) is tight


def formed_rows(monkeypatch):
    """The probes of every block the subset stage forms, as a list that grows."""
    formed = []
    violations = perturbation._violations

    def counted(work, k_mat, probes, *rest):
        formed.extend(probes)
        return violations(work, k_mat, probes, *rest)

    monkeypatch.setattr(perturbation, "_violations", counted)
    return formed


@pytest.mark.parametrize("name", ["FIX-R003", "interleaved", "fourteen-members"])
@pytest.mark.parametrize("params", MODE_PARAMS, ids=lambda p: p.mode.value)
def test_the_row_stage_changes_no_verdict(name, params, monkeypatch):
    system, k = search_case(name)
    family = nudged(system)

    def verdicts():
        rows = []
        for entries in (1, perturbation.PROBE_BLOCK_ENTRIES, 2**40):
            monkeypatch.setattr(perturbation, "PROBE_BLOCK_ENTRIES", entries)
            v = perturb_hypothesis(system, family, k, params)
            rows.append((v.falsified, v.worst_violation, v.worst_subset, v.probes_tested,
                         v.worst_probe.dtype, v.worst_probe.tobytes()))
        return rows

    formed = formed_rows(monkeypatch)
    settled = verdicts()
    count = len(formed)
    # the row bound off: every bound NaN, so no row settles
    monkeypatch.setattr(perturbation, "_row_bounds",
                        lambda members, prm: np.full(members[0].shape[0], np.nan))
    assert verdicts() == settled
    # only C-p2-normsum and T-sqsum settle rows, and with one probe per block most
    assert (count < len(formed) - count) is (params in ROW_PARAMS)
    assert params not in ROW_PARAMS or count < 0.75 * (len(formed) - count)


@pytest.mark.parametrize("params", ROW_PARAMS, ids=lambda p: p.mode.value)
def test_a_nan_member_term_leaves_its_row_unsettled(params, monkeypatch):
    system, k = search_case("FIX-R003")
    family = nudged(system)
    monkeypatch.setattr(perturbation, "PROBE_BLOCK_ENTRIES", 1)
    formed = formed_rows(monkeypatch)
    perturb_hypothesis(system, family, k, params)
    probes = unit_probes(system.dim, perturbation.RANDOM_PROBES, seed=0xFA15)
    kept = {f.tobytes() for f in formed}
    row = next(i for i in range(1, probes.shape[0]) if probes[i].tobytes() not in kept)
    # an infinite term gives an infinite U, which settles nothing either
    work = perturbation._Workspace(subset_masks(system.size), _member_data(system, family))
    members = perturbation._member_terms(work, k.matrix, probes, params)
    for bad in (np.inf, np.nan):
        members[1][row, 0, 0] = bad
        bounds = perturbation._row_bounds(members, params)
        assert np.isnan(bounds[row]) and not np.isnan(np.delete(bounds, row)).any()
    member_terms = perturbation._member_terms

    def spoiled(*args):
        terms = member_terms(*args)
        if terms[0].shape[0] == probes.shape[0]:
            terms[1][row, 0, 0] = np.nan
        return terms

    monkeypatch.setattr(perturbation, "_member_terms", spoiled)
    formed.clear()
    # the row is formed, and its NaN gaps stop the search
    with pytest.raises(InputError, match="overflowed"):
        perturb_hypothesis(system, family, k, params)
    assert probes[row].tobytes() in {f.tobytes() for f in formed}


def test_a_row_bound_below_the_worst_gap_settles_no_row_that_could_falsify(monkeypatch):
    # C-p2-normsum at R = 1 and k = diag(3.5e4, 0.8): probe e1 finds subset {0} at a
    # gap of 1e-6, within tolerance at its scale of 7e4; probe e2 finds subset {1} at
    # a gap of 1e-8, which fails at its scale of 2.6, though its row bound lies below
    # the worst gap found so far
    def system(a2, b2):
        e = np.eye(2)
        return GFusionSystem(HilbertSpace("real", 2), (
            (WeightedSubspace(e[:, :1], 1.0), LocalOperator([[np.sqrt(a2), 0.0]])),
            (WeightedSubspace(e[:, 1:], 1.0), LocalOperator([[0.0, np.sqrt(b2)]]))))

    monkeypatch.setattr(perturbation, "unit_probes", lambda *args, **kwargs: np.eye(2))
    monkeypatch.setattr(perturbation, "PROBE_BLOCK_ENTRIES", 1)
    witness_at(monkeypatch, [1.0, 0.0])
    verdict = perturb_hypothesis(system(1e5, 1.0), system(1e5 - 3.5e4 - 1e-6, 0.2 - 1e-8),
                                 BoundedOperator(np.diag([3.5e4, 0.8])),
                                 PerturbationParams(0.0, 0.0, 0.0, 1.0, "C-p2-normsum"))
    assert verdict.falsified and verdict.probes_tested == 3
    assert verdict.worst_subset == (0,)
    assert verdict.worst_violation == pytest.approx(1e-6, rel=1e-3)


def test_exhaustive_subset_masks_keep_the_enumeration_order():
    for size in range(1, 13):
        old = np.zeros((2**size - 1, size), dtype=bool)
        for row, bits in enumerate(range(1, 2**size)):
            for j in range(size):
                old[row, j] = bool(bits >> j & 1)
        assert_bits(subset_masks(size), old)


def test_built_family_is_reused(fix_i):
    family = nudged(fix_i.system)
    assert _on_base(fix_i.system, family) is family
    swapped = GFusionSystem(fix_i.system.space, tuple(reversed(family.members)))
    rebuilt = _on_base(fix_i.system, swapped)
    assert rebuilt is not swapped
    assert [sub for sub, _ in rebuilt.members] == [sub for sub, _ in fix_i.system.members]


@pytest.mark.parametrize("params", [
    PerturbationParams(0.0, 0.0, 0.0, 0.21, "C-p2-normsum"),
    PerturbationParams(0.0, 0.0, 0.0, 5.0, "C-p2-normsum"),  # inadmissible: R >= A
], ids=["contained", "erratum"])
def test_perturb_report_searches_once_and_gives_the_theorem_check(fix_i, monkeypatch,
                                                                   params):
    theta = scaled_system(fix_i, 1.1)
    k = fix_i.operators["k"]
    checked = verify_perturbation_theorem(fix_i.system, theta, k, params)
    searches = count_calls(monkeypatch, perturbation, "perturb_hypothesis")
    report = perturbation.perturb_report(fix_i.system, theta, k, params, tol=DEFAULT_TOL)
    assert len(searches) == 1
    assert report.passed and report.error is None
    assert (report.theta_bounds, report.predicted, report.erratum_log) == (
        checked.theta_bounds, checked.predicted, checked.erratum_log)


def test_the_theorem_check_is_the_report_with_its_two_raises(fix_i):
    theta = to_system(load_document(DATA_DIR / "cli" / "theta_fix_i_c11.json"))[0]
    k = fix_i.operators["k"]
    kept = 0
    for params in MODE_PARAMS + [PerturbationParams(0.0, 0.0, 0.0, 0.5, "C-p2-normsum"),
                                 PerturbationParams(0.0, 0.0, 0.0, 0.5, "T-sqsum")]:
        report = perturbation.perturb_report(fix_i.system, theta, k, params, tol=DEFAULT_TOL)
        if report.verdict.falsified:
            with pytest.raises(PreconditionError, match="hypothesis falsified with worst"):
                verify_perturbation_theorem(fix_i.system, theta, k, params)
            continue
        kept += 1
        checked = verify_perturbation_theorem(fix_i.system, theta, k, params)
        for got in (report, checked):
            assert got.error is None
        verdicts = [(v.falsified, v.worst_violation, v.worst_subset, v.probes_tested,
                     v.worst_probe.tobytes()) for v in (report.verdict, checked.verdict)]
        assert verdicts[0] == verdicts[1]
        fields = ("base_bounds", "predicted", "theta_bounds", "lower_contained",
                  "upper_contained", "hypothesis_certified", "gamma_readings", "erratum_log")
        assert [getattr(report, f) for f in fields] == [getattr(checked, f) for f in fields]
    assert kept >= 3


# finite inputs give a NaN or +inf gap, or a non-finite scale, only by overflow; a pair
# a bound settles reads gap -inf at a finite scale
@pytest.mark.parametrize("gap, scale", [
    (np.nan, 1.0), (np.inf, 1.0), (0.0, np.inf), (0.0, np.nan), (-np.inf, 1.0),
], ids=["nan-gap", "inf-gap", "inf-scale", "nan-scale", "settled"])
@pytest.mark.parametrize("first", [0, 1], ids=["first-probe", "later-probe"])
def test_only_an_overflowed_gap_or_scale_raises(fix_i, monkeypatch, gap, scale, first):
    real = perturbation._violations

    def spoiled(*args):
        gaps, scales = real(*args)
        gaps[first:, 0], scales[first:, 0] = gap, scale
        return gaps, scales

    monkeypatch.setattr(perturbation, "_violations", spoiled)
    args = (fix_i.system, nudged(fix_i.system), fix_i.operators["k"], MODE_PARAMS[2])
    if gap == -np.inf:
        verdict = perturb_hypothesis(*args)
        assert verdict.probes_tested == fix_i.system.dim + perturbation.RANDOM_PROBES + 1
        assert math.isfinite(verdict.worst_violation)
        return
    with pytest.raises(InputError, match="overflowed"):
        perturb_hypothesis(*args)


@pytest.mark.parametrize("params", [
    PerturbationParams(R=0.90, mode="C-p2-normsum"),
    PerturbationParams(0.2, 0.2, 1e-3, mode="P1-sqrt-sum"),
], ids=lambda p: p.mode.value)
def test_an_overflowing_search_raises_instead_of_holding(params):
    # both are falsified at c = 1; at c = 1e100 the subset sums square past the float
    # range, and the search read "not falsified" (worst inf, or -inf with no witness)
    assert perturb_hypothesis(*spec_case(), params).falsified
    c = 1e100
    scaled = PerturbationParams(params.lambda1, params.lambda2, c * params.gamma,
                                c * c * params.R, params.mode)
    with pytest.raises(InputError, match="overflowed"):
        perturb_hypothesis(*spec_case(c), scaled)


@pytest.mark.parametrize("constants", [
    ["--mode", "C-p2-normsum", "--R", "0.9e200"],
    ["--mode", "P1-sqrt-sum", "--lambda1", "0.2", "--lambda2", "0.2", "--gamma", "1e97"],
], ids=["C-p2-normsum", "P1-sqrt-sum"])
def test_an_overflowing_perturb_reports_the_overflow_and_nothing_else(tmp_path, capsys,
                                                                      constants):
    # the c = 1e100 searches above through the CLI: numpy's overflow warning and its
    # source line used to reach stderr ahead of the report's own error
    doc = spec_document(["6"] + ["3x2"] * 12, 4)
    system, theta, _ = spec_case(1e100)
    paths = []
    for name, family in (("base", system), ("theta", theta)):
        path = tmp_path / f"{name}.json"
        save_document(replace(doc, local_operators=[op.matrix for _, op in family.members]),
                      path)
        paths.append(str(path))
    code = cli.main(["perturb", paths[0], "--theta", paths[1], *constants])
    out, err = capsys.readouterr()
    assert code == 2
    assert "the perturbation search overflowed" in json.loads(out)["error"]
    assert err == ""


def looped_subset_masks(size, rng_seed=0x5B5E7):
    """The sampled subset family drawn one row at a time, as tuples."""
    chosen = {tuple([True] * size)}
    for j in range(size):
        single = [False] * size
        single[j] = True
        chosen.add(tuple(single))
        chosen.add(tuple(not b for b in single))
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    while len(chosen) < frame_ops.SAMPLED_SUBSETS:
        draw = rng.random(size) < 0.5
        if draw.any():
            chosen.add(tuple(bool(b) for b in draw))
    return np.array(sorted(chosen), dtype=bool)


def test_sampled_subset_masks_match_the_row_by_row_draw():
    for size in range(13, 25):
        assert_bits(subset_masks(size), looped_subset_masks(size))

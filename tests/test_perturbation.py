"""Near-identity certificates and the four perturbation hypothesis shapes."""

import numpy as np
import numpy.testing as npt
import pytest

from framelab import (
    BoundedOperator,
    GFusionSystem,
    InputError,
    PreconditionError,
    fixture,
    frame_operator,
    optimal_bounds,
)
from framelab.perturbation import (
    PerturbationMode,
    PerturbationParams,
    paley_wiener_check,
    perturb_hypothesis,
    predicted_bounds,
    variant_gamma_readings,
    verify_perturbation_theorem,
)
from conftest import decode_case_matrix, fix_r_names, load_suite


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

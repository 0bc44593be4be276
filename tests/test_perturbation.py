"""Near-identity certificates and the four perturbation hypothesis shapes."""

import numpy as np
import numpy.testing as npt
import pytest

from framelab import (
    DEFAULT_TOL,
    BoundedOperator,
    GFusionSystem,
    InputError,
    PreconditionError,
    fixture,
    frame_operator,
    frame_ops,
    optimal_bounds,
    perturbation,
)
from framelab.documents import (
    load_packaged_fixture,
    packaged_fixture_names,
    spec_document,
    to_system,
)
from framelab.frame_ops import subset_masks
from framelab.model import HilbertSpace, LocalOperator, WeightedSubspace
from framelab.numerics import adjoint, unit_probes
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
from conftest import count_calls, decode_case_matrix, fix_r_names, load_suite

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
    assert report.verdict.worst_violation == pytest.approx(-0.150, abs=5e-4)
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
    for params in MODE_PARAMS:
        gaps, scales = _violations(masks, data, k_mat, probes, params)
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
    work = perturbation._Workspace(*kernel_case(system))
    assert [list(group[0]) for group in work.groups] == [[0, 4], [1, 3], [2, 5]]
    k_mat = np.diag([1.0, 0.5 + 0.5j, 2.0j])
    assert_kernel_matches_reference(system, k_mat)


@pytest.mark.parametrize("name", ["FIX-R003", "FIX-R005"])
def test_block_kernel_does_not_depend_on_the_blocking(name):
    system, operators = to_system(load_packaged_fixture(name))
    masks, data, probes = kernel_case(system, trials=20)
    k_mat = operators["k"].matrix
    for params in MODE_PARAMS:
        whole = _violations(masks, data, k_mat, probes, params)
        single = [_violations(masks, data, k_mat, probes[i:i + 1], params)
                  for i in range(probes.shape[0])]
        for part, together in zip(zip(*single), whole):
            assert_bits(np.concatenate(part), together)


@pytest.mark.parametrize("name", ["FIX-R003", "FIX-R011", "fourteen-members", "interleaved"])
def test_blocks_through_one_workspace_match_fresh_calls(name):
    if name == "fourteen-members":
        system, k_mat = fourteen_member_system(), np.eye(3)
    elif name == "interleaved":
        system, k_mat = interleaved_complex_system(), np.eye(3)
    else:
        system, operators = to_system(load_packaged_fixture(name))
        k_mat = operators["k"].matrix
    masks, data, probes = kernel_case(system, trials=12)
    # full blocks, a shorter last block, and a one-probe refinement step
    blocks = [probes[i:i + 5] for i in range(0, probes.shape[0], 5)] + [probes[3:4]]
    for params in MODE_PARAMS:
        work = perturbation._Workspace(masks, data, probes[:5])
        arrays = {attr: value for attr, value in vars(work).items()
                  if isinstance(value, np.ndarray)}
        # the per-search constants are read-only; every other array is a buffer
        assert {attr for attr, value in arrays.items()
                if not value.flags.writeable} == {"weights", "weights_t", "w2"}
        # a real search squares its subset sums in place: no squares buffer
        assert (work.squares is None) == (system.space.field == "real")
        assert all(not a.flags.writeable for group in work.groups for a in group)
        for value in arrays.values():
            if value.flags.writeable:
                value.fill(np.nan)
        kept = []
        for block in blocks:
            gaps, scales = _violations(masks, data, k_mat, block, params, work)
            fresh_gaps, fresh_scales = _violations(masks, data, k_mat, block, params)
            assert_bits(gaps, fresh_gaps)
            assert_bits(scales, fresh_scales)
            kept.append((gaps, scales, fresh_gaps, fresh_scales))
        # later blocks reuse the buffers, never the arrays an earlier block returned
        for gaps, scales, fresh_gaps, fresh_scales in kept:
            assert_bits(gaps, fresh_gaps)
            assert_bits(scales, fresh_scales)


@pytest.mark.parametrize("params", MODE_PARAMS, ids=lambda p: p.mode.value)
def test_duplicate_probe_across_a_block_boundary_keeps_the_earliest(params, monkeypatch):
    bundle = fixture("FIX-R005")
    system, k = bundle.system, bundle.operators["k"]
    masks, data, probes = kernel_case(system, trials=12)
    gaps, _ = _violations(masks, data, k.matrix, probes, params)
    first = int(np.argmax(gaps.max(axis=1)))
    # -f has the same gap as f at every subset; it opens the next block
    crafted = np.insert(probes, first + 1, -probes[first], axis=0)
    monkeypatch.setattr(perturbation, "unit_probes", lambda *args, **kwargs: crafted)
    monkeypatch.setattr(perturbation, "REFINE_STEPS", 0)
    monkeypatch.setattr(perturbation, "PROBE_BLOCK_ENTRIES",
                        (first + 1) * masks.shape[0] * system.dim)
    verdict = perturb_hypothesis(system, _on_base(system, nudged(system)), k, params)
    assert verdict.probes_tested == crafted.shape[0]
    assert verdict.worst_violation == float(gaps.max())
    assert_bits(verdict.worst_probe, probes[first])


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

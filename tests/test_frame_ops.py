"""Synthesis, frame verification, optimal bounds, and reconstruction."""

import numpy as np
import numpy.testing as npt
import pytest

from framelab import (
    BoundedOperator,
    FrameBounds,
    GFusionSystem,
    HilbertSpace,
    InputError,
    InternalConsistencyError,
    LocalOperator,
    NotAFrameError,
    ToleranceProfile,
    WeightedSubspace,
    cross_frame_check,
    fixture,
    frame_operator,
    frame_ops,
    optimal_bounds,
    reconstruction_check,
    restricted_inverse,
    subset_frame_operators,
    verify_k_g_fusion,
)
from framelab.documents import load_packaged_fixture, packaged_fixture_names, to_system
from framelab.numerics import adjoint, inner, operator_norm, unit_probes
from framelab.oracle import (
    reference_frame_operator,
    reference_lower_bound,
    reference_upper_bound,
)
from conftest import count_calls, fix_r_names, load_sidecar, thin_direction_system


def single_member_system():
    space = HilbertSpace("real", 2)
    member = (WeightedSubspace(np.array([[1.0], [0.0]]), 1.0),
              LocalOperator(np.eye(2)))
    return GFusionSystem(space, (member,))


def test_synthesis_shape_and_blocks(fix_a):
    t = fix_a.system.synthesis_matrix
    assert t.shape == (3, 3)
    npt.assert_allclose(t, np.eye(3), atol=0.0)
    npt.assert_allclose(frame_operator(fix_a.system), np.eye(3), atol=0.0)


def test_synthesis_adjoint_pairing(fix_a):
    t = fix_a.system.synthesis_matrix
    rng = np.random.Generator(np.random.PCG64(0xADA))
    for _ in range(5):
        f = rng.standard_normal(3)
        g = rng.standard_normal(t.shape[1])
        lhs = np.vdot(f, t @ g)
        rhs = np.vdot(adjoint(t) @ f, g)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_fix_a_bounds_and_claims(fix_a):
    k = fix_a.operators["k"]
    bounds = optimal_bounds(fix_a.system, k)
    assert bounds.lower == pytest.approx(0.5, abs=1e-9)
    assert bounds.upper == pytest.approx(1.0, abs=1e-9)
    report = verify_k_g_fusion(fix_a.system, k, claimed=FrameBounds(0.5, 1.0))
    assert report.is_frame and report.claimed_lower_ok and report.claimed_upper_ok
    too_high = verify_k_g_fusion(fix_a.system, k, claimed=FrameBounds(0.6, 1.0))
    assert not too_high.claimed_lower_ok
    assert too_high.claimed_upper_ok


@pytest.mark.parametrize("lower, upper", [(0.5, np.inf), (np.inf, 2.0), (0.5, np.nan)])
def test_frame_bounds_must_be_finite(lower, upper):
    with pytest.raises(InputError, match="bounds must be finite"):
        FrameBounds(lower, upper)


def test_fix_a_u_operator_is_frame(fix_a):
    report = verify_k_g_fusion(fix_a.system, fix_a.operators["u"])
    assert report.is_frame
    assert report.optimal.lower == pytest.approx(1.0, abs=1e-9)
    assert report.optimal.upper == pytest.approx(1.0, abs=1e-9)
    assert report.range_inclusion_residual <= 1e-12


def test_fix_i_is_parseval(fix_i):
    report = verify_k_g_fusion(fix_i.system, fix_i.operators["k"])
    assert report.is_parseval
    assert report.optimal.lower == pytest.approx(1.0, abs=1e-12)
    assert report.optimal.upper == pytest.approx(1.0, abs=1e-12)


def test_not_a_frame_when_range_escapes():
    system = single_member_system()
    k = BoundedOperator.identity(2)
    report = verify_k_g_fusion(system, k)
    assert not report.is_frame
    assert report.range_inclusion_residual > 0.9
    with pytest.raises(NotAFrameError):
        optimal_bounds(system, k)


def test_sandwich_inequality_on_probes():
    bundle = fixture(fix_r_names()[0])
    k = bundle.operators["k"]
    bounds = optimal_bounds(bundle.system, k)
    complex_field = bundle.system.space.field == "complex"
    probes = unit_probes(bundle.system.dim, 25, complex_field=complex_field,
                         seed=0xBEA7)
    for f in probes:
        total = sum(
            sub.weight**2 * np.linalg.norm(
                op.matrix @ (sub.basis @ (sub.basis.conj().T @ f)))**2
            for sub, op in bundle.system.members)
        k_energy = np.linalg.norm(k.adjoint().matrix @ f)**2
        assert bounds.lower * k_energy <= total + 1e-9
        assert total <= bounds.upper * np.linalg.norm(f)**2 + 1e-9


def test_weight_scaling_homogeneity(fix_a):
    k = fix_a.operators["k"]
    scaled_members = tuple(
        (WeightedSubspace(sub.basis, 3.0 * sub.weight), op)
        for sub, op in fix_a.system.members)
    scaled = GFusionSystem(fix_a.system.space, scaled_members)
    base = optimal_bounds(fix_a.system, k)
    bounds = optimal_bounds(scaled, k)
    assert bounds.lower == pytest.approx(9.0 * base.lower, rel=1e-12)
    assert bounds.upper == pytest.approx(9.0 * base.upper, rel=1e-12)


def test_lower_bound_matches_bisection_oracle(fix_a):
    s = [list(row) for row in frame_operator(fix_a.system)]
    for name in ("k", "u"):
        target = fix_a.operators[name]
        bounds = optimal_bounds(fix_a.system, target)
        ref = reference_lower_bound(s, [list(row) for row in target.matrix])
        assert bounds.lower == pytest.approx(ref, rel=1e-8)


def test_frozen_sidecar_values_for_fix_a():
    payload = load_sidecar("FIX-A")
    npt.assert_allclose(payload["spectrum"], [1.0, 1.0, 1.0], atol=1e-12)
    assert payload["upper"] == pytest.approx(1.0, abs=1e-12)
    assert payload["operators"]["k"]["lower"] == pytest.approx(0.5, abs=1e-11)
    assert payload["operators"]["u"]["lower"] == pytest.approx(1.0, abs=1e-11)
    assert payload["operators"]["k"]["target_norm"] == pytest.approx(np.sqrt(2.0))


def lemma_residuals(system, k, probes=50):
    """Worst inverse defect and bound slack of ``restricted_inverse``, one probe at a time.

    The lemma: X S g = g for g in ran(k), and
    ``B^-1 |f|^2 <= <X f, f> <= A^-1 |pinv(k)|^2 |f|^2`` for f in S(ran k).
    The probes are each basis plus ``probes`` seeded combinations of its columns;
    the inverse defect is relative to |g|, the slack the most negative of both sides.
    """
    x, p = restricted_inverse(system, k)
    s, bk, bounds = frame_operator(system), k.range_basis(), optimal_bounds(system, k)
    complex_field = np.iscomplexobj(s) or np.iscomplexobj(bk)
    inverse_residual = 0.0
    for c in unit_probes(bk.shape[1], probes, complex_field=complex_field, seed=0xB0B):
        g = bk @ c
        defect = np.linalg.norm(x @ (s @ g) - g) / np.linalg.norm(g)
        inverse_residual = max(inverse_residual, float(defect))
    kdag_norm = operator_norm(k.pinv())
    image_basis = np.linalg.svd(p)[0][:, :round(np.trace(p).real)]
    slack_min = float("inf")
    for c in unit_probes(image_basis.shape[1], probes, complex_field=complex_field,
                         seed=0xB0C):
        f = image_basis @ c
        quad = inner(x @ f, f).real
        nf2 = float(np.linalg.norm(f))**2
        slack_lo = quad - nf2 / bounds.upper
        slack_hi = (kdag_norm**2 / bounds.lower) * nf2 - quad
        slack_min = min(slack_min, float(slack_lo), float(slack_hi))
    return inverse_residual, slack_min


def test_restricted_inverse_identity_case(fix_i):
    x, p = restricted_inverse(fix_i.system, fix_i.operators["k"])
    npt.assert_allclose(x, np.eye(2), atol=1e-12)
    npt.assert_allclose(p, np.eye(2), atol=1e-12)
    inverse_residual, slack_min = lemma_residuals(fix_i.system, fix_i.operators["k"])
    assert inverse_residual <= 1e-12
    assert slack_min >= -1e-12


def test_restricted_inverse_respects_range(fix_a):
    k = fix_a.operators["k"]
    x, p = restricted_inverse(fix_a.system, k)
    assert lemma_residuals(fix_a.system, k)[0] <= 1e-12
    # ran(k) and S(ran k) are 2-dimensional here; X maps the one into the other
    # and annihilates the orthogonal complement of S(ran k)
    assert np.trace(p).real == pytest.approx(2.0, abs=1e-12)
    npt.assert_allclose(p @ p, p, atol=1e-12)
    bk = k.range_basis()
    npt.assert_allclose(x - bk @ adjoint(bk) @ x, 0.0, atol=1e-12)
    npt.assert_allclose(x - x @ p, 0.0, atol=1e-12)


@pytest.mark.parametrize("eps", [1e-5, 1e-8])
def test_restricted_inverse_keeps_every_direction_of_a_certified_k_frame(eps):
    # S B_k = diag(1, eps^2) has full column rank however small eps^2 is
    system, k = thin_direction_system(eps), BoundedOperator.identity(2)
    assert optimal_bounds(system, k).lower == pytest.approx(eps**2, rel=1e-9)
    npt.assert_allclose(restricted_inverse(system, k)[1], np.eye(2), atol=1e-12)
    assert lemma_residuals(system, k)[0] <= 1e-12
    assert not reconstruction_check(system, k, [0.0, 1.0]).projected


def test_restricted_inverse_rejects_a_direction_s_annihilates_inside_the_tolerance_band():
    # ran(k) leaves ran(T) by 5e-10, which the default tolerance lets through, so the
    # k-frame is certified with both directions of k kept although S B_k = diag(1, 0)
    system, k = thin_direction_system(0.0), BoundedOperator(np.diag([0.01, 5e-10]))
    assert k.range_basis().shape == (2, 2)
    assert optimal_bounds(system, k).lower > 0.0
    with pytest.raises(NotAFrameError, match="S is not injective on ran"):
        restricted_inverse(system, k)
    with pytest.raises(NotAFrameError, match="S is not injective on ran"):
        reconstruction_check(system, k, [1.0, 0.0])


@pytest.mark.parametrize("name", packaged_fixture_names())
def test_restricted_inverse_probe_blocks_match_the_probe_loop(name):
    """The lemma, and the reconstruction identity through X at the standard
    basis plus seeded probes, for every operator of a packaged fixture."""
    system, operators = to_system(load_packaged_fixture(name))
    for k in operators.values():
        inverse_residual, slack_min = lemma_residuals(system, k)
        assert inverse_residual <= 1e-12
        assert slack_min >= -1e-12
        p = restricted_inverse(system, k)[1]
        complex_field = np.iscomplexobj(system.frame_matrix) or np.iscomplexobj(k.matrix)
        for f in unit_probes(system.dim, 10, complex_field=complex_field, seed=0xF00):
            report = reconstruction_check(system, k, f)
            assert report.passed and report.residual <= 1e-12
            assert report.projection_distance == pytest.approx(
                float(np.linalg.norm(f - p @ f)), abs=1e-12)
            # a probe leaves S(ran k) only when that is a proper subspace
            assert not report.projected or np.trace(p).real < system.dim - 0.5


def test_one_factorization_per_system_target_and_tolerance(monkeypatch):
    bundle = fixture("FIX-R003")
    system, k = bundle.system, bundle.operators["k"]
    factored = count_calls(monkeypatch, frame_ops, "douglas_factor")
    report = verify_k_g_fusion(system, k)
    bounds = optimal_bounds(system, k)
    claimed = verify_k_g_fusion(system, k, FrameBounds(bounds.lower, bounds.upper))
    assert verify_k_g_fusion(system, k, tol=ToleranceProfile()) is report
    assert len(factored) == 1
    assert claimed.claimed_valid and claimed.optimal == report.optimal
    assert report.claimed is None
    other_tol = ToleranceProfile(tau_abs=1e-9, tau_rel=1e-8)
    assert optimal_bounds(system, k, other_tol) == bounds
    other_k = BoundedOperator(k.matrix.copy())
    assert optimal_bounds(system, other_k) == bounds
    assert len(factored) == 3


def test_the_analysis_certifies_its_lower_bound_against_the_frame_operator():
    """The analysis raises when S - A kk* >= 0 fails, before any caller reads A.

    A copy of FIX-R003's system gets the frame operator lowered by 1e-6 |S|
    along the direction where A is attained.  T, and so the Douglas
    factorization and A, stay as they were, and A |k|^2 <= |S| still holds,
    so only the PSD certificate can see the change.
    """
    bundle = fixture("FIX-R003")
    k = bundle.operators["k"]
    a = verify_k_g_fusion(bundle.system, k).optimal.lower
    s = bundle.system.frame_matrix
    _, v = np.linalg.eigh(s - a * k.times_adjoint)
    lowered = GFusionSystem(bundle.system.space, bundle.system.members)
    drop = 1e-6 * operator_norm(s) * np.outer(v[:, 0], v[:, 0].conj())
    vars(lowered)["frame_matrix"] = s - drop
    assert a * k.norm**2 <= operator_norm(lowered.frame_matrix)
    for call in (verify_k_g_fusion, optimal_bounds):
        with pytest.raises(InternalConsistencyError, match="PSD certification"):
            call(lowered, k)


def test_reconstruction_check(fix_i):
    report = reconstruction_check(fix_i.system, fix_i.operators["k"],
                                  np.array([1.0, 2.0]))
    assert report.passed
    assert report.residual <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_reconstruction_check_rejects_a_non_finite_probe(fix_i, bad):
    with pytest.raises(InputError, match="probe vector contains non-finite entries"):
        reconstruction_check(fix_i.system, fix_i.operators["k"], [bad, 0.0])


def test_cross_frame_shared_bounds(fix_i):
    k = fix_i.operators["k"]
    report = cross_frame_check(fix_i.system, fix_i.system, k)
    assert report.premise_ok
    assert report.premise_residual <= 1e-12
    assert report.lambda_lower == pytest.approx(1.0)
    assert report.theta_lower == pytest.approx(1.0)
    assert report.lambda_certified and report.theta_certified


def test_cross_frame_premise_violation(fix_i):
    theta = fix_i.system.with_local_operators(
        [1.1 * op.matrix for _, op in fix_i.system.members])
    report = cross_frame_check(fix_i.system, theta, fix_i.operators["k"])
    assert not report.premise_ok
    assert report.premise_residual == pytest.approx(0.1, abs=1e-12)
    assert report.lambda_lower is None


def test_dimension_mismatch_rejected(fix_i):
    with pytest.raises(InputError):
        verify_k_g_fusion(fix_i.system, BoundedOperator.identity(3))
    doubled = GFusionSystem(fix_i.system.space, tuple(
        (sub, LocalOperator(np.vstack([op.matrix, op.matrix])))
        for sub, op in fix_i.system.members))
    with pytest.raises(InputError, match="share their local coordinate dimensions"):
        cross_frame_check(fix_i.system, doubled, fix_i.operators["k"])


def test_a_complex_target_on_a_real_system_is_rejected(fix_i):
    with pytest.raises(InputError, match="complex operator on a system over a real space"):
        verify_k_g_fusion(fix_i.system, BoundedOperator(np.diag([1.0, 1j])))


def test_tightened_tolerance_changes_verdict(fix_i):
    # a Parseval defect of 1e-6 passes a loose profile and fails the default
    theta = fix_i.system.with_local_operators(
        [(1.0 + 5e-7) * op.matrix for _, op in fix_i.system.members])
    k = fix_i.operators["k"]
    strict = verify_k_g_fusion(theta, k)
    loose = verify_k_g_fusion(theta, k, tol=ToleranceProfile(tau_abs=1e-4, tau_rel=1e-4))
    assert not strict.is_parseval
    assert loose.is_parseval


def test_frame_operator_matches_oracle_on_random_fixtures():
    names = fix_r_names()
    assert len(names) == 20
    fields = set()
    for name in names:
        doc = load_packaged_fixture(name)
        fields.add(doc.field)
        reference = reference_frame_operator(doc)
        s = frame_operator(fixture(name).system)
        assert np.linalg.norm(s - reference, 2) <= 1e-12 * np.linalg.norm(reference, 2), name
    assert fields == {"real", "complex"}


def test_partial_frame_operators_split_the_frame_operator():
    rng = np.random.Generator(np.random.PCG64(0x5B1))
    for name in fix_r_names():
        system = fixture(name).system
        s = frame_operator(system)
        masks = rng.random((4, system.size)) < 0.5
        stack = subset_frame_operators(system, np.vstack([masks, ~masks]))
        for row, s_i, s_c in zip(masks, stack[:4], stack[4:]):
            assert np.array_equal(subset_frame_operators(system, row[None])[0], s_i), name
            assert np.array_equal(subset_frame_operators(system, ~row[None])[0], s_c), name
            assert np.linalg.norm(s_i + s_c - s, 2) <= 1e-12 * np.linalg.norm(s, 2), name
        full = subset_frame_operators(system, np.ones((1, system.size), dtype=bool))[0]
        assert np.array_equal(s, full), name


@pytest.mark.parametrize("call", [
    lambda system: frame_operator(system, fixture("FIX-A").system),
    lambda system: subset_frame_operators(system, np.ones((1, system.size + 1), dtype=bool)),
    lambda system: subset_frame_operators(system, np.ones((1, system.size), dtype=int)),
], ids=["foreign-system", "wrong-width-mask", "non-boolean-mask"])
def test_frame_operators_reject_a_foreign_system_and_malformed_masks(fix_i, call):
    with pytest.raises(InputError, match="share its base's space|masks must be a boolean"):
        call(fix_i.system)


def test_frame_bounds_need_not_be_ordered():
    # A |k* f|^2 <= sum <= B |f|^2 only implies A |k|^2 <= B
    bounds = FrameBounds(2.0, 1.0)
    assert (bounds.lower, bounds.upper) == (2.0, 1.0)
    with pytest.raises(InputError):
        FrameBounds(-1.0, 1.0)
    with pytest.raises(InputError):
        FrameBounds(float("nan"), 1.0)


def test_small_target_gives_lower_bound_above_upper():
    bundle = fixture("FIX-R000")
    small = BoundedOperator(0.2 * bundle.operators["k"].matrix)
    report = verify_k_g_fusion(bundle.system, small)
    assert report.is_frame
    doc = load_packaged_fixture("FIX-R000")
    s = reference_frame_operator(doc)
    oracle_lower = reference_lower_bound(s, 0.2 * np.asarray(doc.operators["k"]))
    assert oracle_lower == pytest.approx(6.98846, rel=1e-6)
    assert report.optimal.lower == pytest.approx(oracle_lower, rel=1e-8)
    assert report.optimal.upper == pytest.approx(reference_upper_bound(s), rel=1e-12)
    assert report.optimal.upper == pytest.approx(4.11186, rel=1e-6)
    assert report.optimal.lower > report.optimal.upper
    assert report.optimal.lower * small.norm**2 <= report.optimal.upper

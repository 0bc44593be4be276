"""Pushforwards along invertible/unitary maps and target-operator reduction."""

import numpy as np
import numpy.testing as npt
import pytest

from framelab import (
    BoundedOperator,
    InputError,
    PreconditionError,
    fixture,
    frame_operator,
    optimal_bounds,
    reduce_operator,
    transform_invertible,
    transform_unitary,
    verify_k_g_fusion,
)
from framelab.documents import from_system, to_system


def test_transform_invertible_certifies_moved_system(fix_i):
    k = fix_i.operators["k"]
    u = BoundedOperator(np.array([[2.0, 0.0], [0.0, 1.0]]))
    moved = transform_invertible(fix_i.system, k, u)
    npt.assert_allclose(moved.target_operator.matrix, u.matrix, atol=0.0)
    assert moved.report.is_frame
    assert moved.report.claimed_lower_ok and moved.report.claimed_upper_ok
    assert moved.certified.lower == pytest.approx(1.0)
    assert moved.certified.upper == pytest.approx(4.0)
    # measured bounds may be tighter than the certified pair
    measured = optimal_bounds(moved.system, moved.target_operator)
    assert measured.lower >= moved.certified.lower - 1e-9
    assert measured.upper <= moved.certified.upper + 1e-9


def test_transform_invertible_rejects_singular(fix_i):
    singular = BoundedOperator(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(PreconditionError):
        transform_invertible(fix_i.system, fix_i.operators["k"], singular)
    with pytest.raises(InputError):
        transform_invertible(fix_i.system, fix_i.operators["k"],
                             BoundedOperator.identity(3))
    with pytest.raises(InputError, match="target operator u is numerically zero"):
        reduce_operator(fix_i.system, fix_i.operators["k"], BoundedOperator(np.zeros((2, 2))))


def test_transform_unitary_round_trip(fix_a):
    k = fix_a.operators["k"]
    rng = np.random.Generator(np.random.PCG64(0x0F0))
    u = BoundedOperator(np.linalg.qr(rng.standard_normal((3, 3)))[0])
    moved = transform_unitary(fix_a.system, k, u)
    assert moved.report.is_frame
    # rotating preserves the frame operator spectrum
    npt.assert_allclose(np.linalg.eigvalsh(frame_operator(moved.system)),
                        np.linalg.eigvalsh(frame_operator(fix_a.system)),
                        atol=1e-10)
    back = transform_unitary(moved.system, moved.target_operator,
                             BoundedOperator(u.matrix.conj().T))
    npt.assert_allclose(back.target_operator.matrix, k.matrix, atol=1e-12)
    npt.assert_allclose(frame_operator(back.system),
                        frame_operator(fix_a.system), atol=1e-12)
    bounds = optimal_bounds(back.system, back.target_operator)
    assert bounds.lower == pytest.approx(0.5, abs=1e-9)
    assert bounds.upper == pytest.approx(1.0, abs=1e-9)


def test_transform_unitary_matches_the_invertible_pushforward_of_a_complex_unitary():
    bundle = fixture("FIX-R002")
    k = bundle.operators["k"]
    dim = bundle.system.dim
    rng = np.random.Generator(np.random.PCG64(0x0F1))
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    u = BoundedOperator(np.linalg.qr(z)[0])
    unitary = transform_unitary(bundle.system, k, u)
    invertible = transform_invertible(bundle.system, k, u)
    npt.assert_allclose(frame_operator(unitary.system), frame_operator(invertible.system),
                        rtol=0.0, atol=1e-12)
    npt.assert_array_equal(unitary.target_operator.matrix, invertible.target_operator.matrix)
    assert unitary.certified.lower == invertible.certified.lower
    assert unitary.report.claimed_valid and invertible.report.claimed_valid


def test_transform_unitary_rejects_non_unitary(fix_i):
    stretch = BoundedOperator(np.diag([2.0, 1.0]))
    with pytest.raises(PreconditionError):
        transform_unitary(fix_i.system, fix_i.operators["k"], stretch)


@pytest.mark.parametrize("transform, u", [
    (transform_unitary, np.diag([1.0, 1j])),
    (transform_invertible, [[1.0, 0.1j], [0.0, 1.0]]),
    (reduce_operator, np.diag([0.5j, 0.5])),
], ids=["unitary", "invertible", "reduce"])
def test_a_complex_operator_on_a_real_system_is_an_input_error(fix_i, transform, u):
    with pytest.raises(InputError, match="complex operator on a system over a real space"):
        transform(fix_i.system, fix_i.operators["k"], BoundedOperator(u))


def test_a_complex_unitary_transport_of_a_complex_system_round_trips_its_document():
    bundle = fixture("FIX-R002")
    dim = bundle.system.dim
    rng = np.random.Generator(np.random.PCG64(0x0F2))
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    moved = transform_unitary(bundle.system, bundle.operators["k"],
                              BoundedOperator(np.linalg.qr(z)[0]))
    assert moved.report.claimed_valid
    system, operators = to_system(from_system(moved.system, {"k": moved.target_operator}))
    assert system.space == moved.system.space == bundle.system.space
    npt.assert_array_equal(operators["k"].matrix, moved.target_operator.matrix)
    npt.assert_array_equal(system.frame_matrix, moved.system.frame_matrix)
    assert verify_k_g_fusion(system, operators["k"]).is_frame


def test_reduce_operator_factor_through_k(fix_a):
    # u = k k* has ran(u) inside ran(k), so frame-ness transfers with a
    # certified lower bound A / lambda_min^2
    k = fix_a.operators["k"]
    u = BoundedOperator(k.matrix @ k.matrix.T)
    report = reduce_operator(fix_a.system, k, u)
    assert report.derivable
    assert report.certified_ok
    assert report.certified_lower > 0.0
    direct = optimal_bounds(fix_a.system, u)
    assert direct.lower >= report.certified_lower - 1e-9


def test_reduce_operator_falls_back_to_direct_check(fix_a):
    # ran(u) escapes ran(k) (E1's range fact: e1 lies outside ran(k)), yet the
    # direct verification still certifies a u-frame because S = I
    report = reduce_operator(fix_a.system, fix_a.operators["k"],
                             fix_a.operators["u"])
    assert not report.derivable
    assert report.fallback_report is not None
    assert report.fallback_report.is_frame
    assert report.fallback_report.optimal.lower == pytest.approx(1.0, abs=1e-9)


def test_reduce_operator_sharpness_identity_case(fix_i):
    k = fix_i.operators["k"]
    half = BoundedOperator(0.5 * np.eye(2))
    report = reduce_operator(fix_i.system, k, half)
    assert report.derivable
    # u = k/2 factors with lambda_min = 1/2, so the certified bound is A/(1/4)
    assert report.lambda_min == pytest.approx(0.5, abs=1e-12)
    assert report.certified_lower == pytest.approx(4.0, abs=1e-9)
    assert report.certified_ok


def test_transform_invertible_allows_certified_lower_above_upper():
    bundle = fixture("FIX-R000")
    k = bundle.operators["k"]
    shrink = BoundedOperator(0.2 * np.eye(bundle.system.dim))
    moved = transform_invertible(bundle.system, k, shrink)
    assert moved.certified.lower == pytest.approx(0.2795, abs=1e-4)
    assert moved.certified.upper == pytest.approx(0.1645, abs=1e-4)
    assert moved.report.is_frame
    assert moved.report.claimed_valid

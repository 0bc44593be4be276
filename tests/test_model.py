"""System containers, projections, the commutation lemma, and fixtures."""

import numpy as np
import numpy.testing as npt
import pytest

from framelab import (
    BoundedOperator,
    GFusionSystem,
    HilbertSpace,
    InputError,
    LocalOperator,
    WeightedSubspace,
    check_projection_commutation,
    embed_k_frame,
    fixture,
    projection,
)
from framelab.frame_ops import frame_operator
from conftest import decode_case_matrix, fix_r_names, load_suite


def test_projection_hand_values():
    e1 = WeightedSubspace(np.array([[1.0], [0.0]]), 1.0)
    npt.assert_allclose(projection(e1), np.diag([1.0, 0.0]), atol=0.0)
    diag = WeightedSubspace(np.array([[1.0], [1.0]]) / np.sqrt(2.0), 2.0)
    npt.assert_allclose(projection(diag), np.full((2, 2), 0.5), atol=1e-15)


def test_projection_is_hermitian_idempotent():
    rng = np.random.Generator(np.random.PCG64(0x7E57))
    basis = np.linalg.qr(rng.standard_normal((5, 2)))[0]
    p = projection(WeightedSubspace(basis, 0.7))
    npt.assert_allclose(p @ p, p, atol=1e-12)
    npt.assert_allclose(p.conj().T, p, atol=1e-12)
    # the weight plays no role in the projection itself
    npt.assert_allclose(p, projection(WeightedSubspace(basis, 3.0)), atol=0.0)


def test_weighted_subspace_validation():
    with pytest.raises(InputError):
        WeightedSubspace(np.array([[1.0], [1.0]]), 1.0)  # not unit norm
    with pytest.raises(InputError):
        WeightedSubspace(np.array([[1.0], [0.0]]), 0.0)  # weight must be positive
    with pytest.raises(InputError):
        WeightedSubspace(np.array([[1.0, 0.0]]), 1.0)  # wider than ambient
    empty = WeightedSubspace(np.zeros((3, 0)), 1.0)
    npt.assert_allclose(projection(empty), np.zeros((3, 3)), atol=0.0)


def test_weighted_subspace_refuses_a_weight_that_is_no_number():
    with pytest.raises(InputError, match="weight must be positive and finite, got 'abc'"):
        WeightedSubspace(np.eye(2), "abc")


def test_weighted_subspace_refuses_a_missing_weight():
    with pytest.raises(InputError, match="weight must be positive and finite, got None"):
        WeightedSubspace(np.eye(2), None)


@pytest.mark.parametrize("weight", ["2.0", True, np.True_])
def test_weighted_subspace_refuses_a_string_or_a_bool(weight):
    with pytest.raises(InputError, match=f"weight must be positive and finite, got {weight!r}"):
        WeightedSubspace(np.eye(2), weight)


@pytest.mark.parametrize("weight", [2, np.float32(0.5), np.int64(3)])
def test_weighted_subspace_stores_a_float_weight(weight):
    stored = WeightedSubspace(np.eye(2), weight).weight
    assert type(stored) is float and stored == weight


def test_bounded_operator_basics():
    with pytest.raises(InputError):
        BoundedOperator(np.zeros((2, 3)))
    with pytest.raises(InputError, match="must not be empty"):
        BoundedOperator(np.zeros((0, 0)))
    k = fixture("FIX-A").operators["k"]
    assert k.dim == 3
    assert k.rank() == 2
    assert not k.is_invertible()
    assert k.norm == pytest.approx(np.sqrt(2.0))
    npt.assert_allclose(k.adjoint().matrix, k.matrix.T, atol=0.0)
    ident = BoundedOperator.identity(3)
    assert ident.is_invertible()
    npt.assert_allclose(ident.pinv(), np.eye(3), atol=0.0)


def test_system_validation_and_views(fix_a):
    system = fix_a.system
    assert system.dim == 3
    assert system.size == 3
    npt.assert_array_equal(system.weights(), [1.0, 1.0, 1.0])
    assert system.local_dims() == (1, 1, 1)
    space = HilbertSpace("real", 3)
    bad_member = (WeightedSubspace(np.array([[1.0], [0.0]]), 1.0),
                  LocalOperator(np.eye(2)))
    with pytest.raises(InputError):
        GFusionSystem(space, (bad_member,))


def test_a_bool_is_not_a_dimension():
    # isinstance(True, int) holds, so the space tests for bool first
    with pytest.raises(InputError, match="dim must be a positive integer, got True"):
        HilbertSpace("real", True)


@pytest.mark.parametrize("basis, local", [
    (np.eye(2), [[1j, 0.0]]),
    (np.eye(2, dtype=complex), [[1.0, 0.0]]),
], ids=["complex-operator", "complex-basis"])
def test_a_real_space_holds_no_complex_member(basis, local):
    member = (WeightedSubspace(basis, 1.0), LocalOperator(local))
    with pytest.raises(InputError, match="member 0: complex matrix in a real space"):
        GFusionSystem(HilbertSpace("real", 2), (member,))


def test_with_local_operators_replaces_blocks(fix_i):
    scaled = fix_i.system.with_local_operators(
        [2.0 * op.matrix for _, op in fix_i.system.members])
    npt.assert_allclose(frame_operator(scaled), 4.0 * np.eye(2), atol=1e-15)
    with pytest.raises(InputError):
        fix_i.system.with_local_operators([np.eye(2)])  # wrong count


def test_commutation_lemma_unitary_case():
    rng = np.random.Generator(np.random.PCG64(0x1EA))
    basis = np.linalg.qr(rng.standard_normal((4, 2)))[0]
    unitary = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    report = check_projection_commutation(
        WeightedSubspace(basis, 1.0), BoundedOperator(unitary))
    assert report.is_unitary
    assert report.adjoint_residual <= 1e-10
    assert report.unitary_residual <= 1e-10


def test_commutation_lemma_non_unitary_case():
    basis = np.array([[1.0], [0.0]])
    stretch = BoundedOperator(np.array([[2.0, 1.0], [0.0, 1.0]]))
    report = check_projection_commutation(WeightedSubspace(basis, 1.0), stretch)
    assert not report.is_unitary
    # the adjoint-side identity holds for any bounded operator
    assert report.adjoint_residual <= 1e-10


def test_commutation_lemma_suite():
    suite = load_suite("projection_lemma_suite.json")
    for case in suite["cases"][:30]:
        basis = decode_case_matrix(case, "basis")
        unitary = decode_case_matrix(case, "unitary")
        report = check_projection_commutation(
            WeightedSubspace(basis, 1.0), BoundedOperator(unitary))
        assert report.is_unitary
        assert max(report.adjoint_residual, report.unitary_residual) <= 1e-10


def test_embed_k_frame_rank_one_members():
    vectors = [np.array([1.0, 0.0]), np.array([0.0, 1.0]),
               np.array([1.0, 1.0]) / np.sqrt(2.0)]
    system = embed_k_frame(vectors)
    assert system.size == 3
    assert system.local_dims() == (1, 1, 1)
    # rank-one analysis functionals sum to S = sum f_j f_j^*
    npt.assert_allclose(frame_operator(system),
                        [[1.5, 0.5], [0.5, 1.5]], atol=1e-14)


def test_embed_k_frame_refuses_scalar_vectors():
    with pytest.raises(InputError, match="must be 1-dimensional, got 1.0"):
        embed_k_frame([1.0])


def test_embed_k_frame_refuses_a_ragged_vector():
    with pytest.raises(InputError, match="a frame vector is not a flat array of numbers"):
        embed_k_frame([[1.0, [2.0]]])


@pytest.mark.parametrize("vector", [["a", "b"], [1.0, None]])
def test_embed_k_frame_refuses_entries_that_are_no_numbers(vector):
    with pytest.raises(InputError, match="a frame vector must hold numbers"):
        embed_k_frame([vector])


def test_fixture_bundles(fix_a, fix_i):
    assert fix_a.name == "FIX-A"
    assert set(fix_a.operators) == {"k", "u"}
    assert fix_a.errata and fix_a.errata[0]["code"] == "E1"
    assert "not a 'u'-relative frame" in fix_a.errata[0]["documented_claim"]
    npt.assert_allclose(frame_operator(fix_a.system), np.eye(3), atol=0.0)
    assert fix_i.operators["k"].is_invertible()
    with pytest.raises(InputError):
        fixture("FIX-NOPE")


def test_packaged_random_fixtures_load():
    names = fix_r_names()
    assert len(names) == 20
    bundle = fixture(names[0])
    assert bundle.system.dim >= 3
    assert bundle.operators["k"].is_invertible()

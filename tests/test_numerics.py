"""Dense-kernel checks: pseudoinverse, rank, orthonormalization, PSD, Douglas."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from framelab import BoundedOperator, InputError, ToleranceProfile, douglas_factor
from framelab.numerics import (
    adjoint,
    as_matrix,
    column_norms,
    hermitian_eig,
    inner,
    is_hermitian,
    numerical_rank,
    operator_norm,
    orthonormalize,
    pinv,
    psd_check,
    unit_probes,
)
from conftest import decode_case_matrix, load_suite


def penrose_defects(m, p):
    scale = max(1.0, operator_norm(m))
    return (
        operator_norm(m @ p @ m - m) / scale,
        operator_norm(p @ m @ p - p) / max(1.0, operator_norm(p)),
        operator_norm(adjoint(m @ p) - m @ p),
        operator_norm(adjoint(p @ m) - p @ m),
    )


def test_tolerance_profile_scaling():
    tol = ToleranceProfile()
    assert tol.for_scale(0.5) == pytest.approx(1e-10 + 1e-9)
    assert tol.for_scale(100.0) == pytest.approx(1e-10 + 1e-7)
    assert tol.rank_cutoff(10.0) == pytest.approx(1e-10 + 1e-8)
    assert tol.psd_floor(10.0) == pytest.approx(-(1e-10 + 1e-8))
    with pytest.raises(InputError):
        ToleranceProfile(tau_abs=-1.0)
    with pytest.raises(InputError):
        ToleranceProfile(tau_rel=float("nan"))


def test_as_matrix_rejects_bad_input():
    with pytest.raises(InputError):
        as_matrix([[1.0, 2.0], [3.0]])
    with pytest.raises(InputError):
        as_matrix([[float("nan"), 0.0]])
    m = as_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.float64


def test_inner_and_adjoint_conventions():
    a = np.array([1.0 + 2.0j, 0.0])
    b = np.array([1.0j, 1.0])
    # conjugate-linear in the second slot
    assert inner(a, b) == pytest.approx((1.0 + 2.0j) * (-1.0j))
    m = np.array([[1.0, 2.0j], [0.0, 1.0]])
    npt.assert_allclose(adjoint(m), m.conj().T)


def test_pinv_penrose_identities_on_hand_cases():
    cases = [
        np.zeros((3, 2)),
        np.eye(4),
        np.array([[1.0, 0.0], [0.0, 0.0]]),
        np.array([[1.0, 2.0, 3.0]]),
        np.array([[1.0 + 1.0j, 0.0], [0.0, 2.0], [1.0, 1.0j]]),
    ]
    for m in cases:
        p = pinv(m)
        for defect in penrose_defects(m, p):
            assert defect <= 1e-12
    npt.assert_allclose(pinv(np.eye(4)), np.eye(4), atol=1e-14)


def test_pinv_matches_construction_rank_on_suite_sample():
    suite = load_suite("mp_suite.json")
    for case in suite["cases"][:40]:
        m = decode_case_matrix(case, "matrix")
        p = pinv(m)
        for defect in penrose_defects(m, p):
            assert defect <= 1e-9
        assert numerical_rank(m) == case["rank"]


def test_projector_identities_from_pseudoinverse():
    rng = np.random.Generator(np.random.PCG64(0x90D))
    m = rng.standard_normal((5, 3)) @ rng.standard_normal((3, 7))
    p = pinv(m)
    on_range = m @ p
    on_corange = p @ m
    for proj in (on_range, on_corange):
        npt.assert_allclose(proj @ proj, proj, atol=1e-12)
        npt.assert_allclose(adjoint(proj), proj, atol=1e-12)
    # m p projects onto ran(m): fixes every column of m
    npt.assert_allclose(on_range @ m, m, atol=1e-12)


def test_numerical_rank_with_tolerance_cutoff():
    base = np.diag([1.0, 1e-3, 1e-14])
    assert numerical_rank(base) == 2
    assert numerical_rank(base, ToleranceProfile(tau_abs=1e-15, tau_rel=1e-15)) == 3
    assert numerical_rank(np.zeros((4, 2))) == 0


def test_rank_cutoff_is_shared_by_every_range_routine():
    # a square operator with one direction straddling each profile's cutoff
    rng = np.random.Generator(np.random.PCG64(0xC0F))
    q1, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    q2, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    m = q1 @ np.diag([2.0, 1.0, 1e-3, 1e-12]) @ q2
    op = BoundedOperator(m)
    for tol, rank in ((ToleranceProfile(), 3),
                      (ToleranceProfile(tau_abs=1e-15, tau_rel=1e-15), 4)):
        assert numerical_rank(m, tol) == rank
        assert orthonormalize(m, tol).shape == (4, rank)
        assert op.rank(tol) == op.range_basis(tol).shape[1] == rank
        assert op.is_invertible(tol) == (rank == 4)
        npt.assert_allclose(op.pinv(tol), pinv(m, tol), rtol=1e-6, atol=1e-9)
        # pinv(m) m projects onto the kept directions, so its trace is the rank
        assert np.trace(pinv(m, tol) @ m) == pytest.approx(rank, abs=1e-3)


def test_hermitian_eig_against_characteristic_polynomial_oracle():
    # integer matrix whose characteristic polynomial has exact coefficients;
    # the oracle route is trace recursion + companion roots, not eigvalsh
    m = np.array([
        [4.0, 1.0, 0.0, 2.0, 0.0],
        [1.0, 3.0, 1.0, 0.0, 1.0],
        [0.0, 1.0, 5.0, 1.0, 0.0],
        [2.0, 0.0, 1.0, 2.0, 1.0],
        [0.0, 1.0, 0.0, 1.0, 6.0],
    ])
    coeffs = [1.0]
    mk = np.eye(5)
    for j in range(1, 6):
        mk = m @ mk
        coeffs.append(-np.trace(mk) / j)
        mk = mk + coeffs[-1] * np.eye(5)
    npt.assert_allclose(coeffs, [1.0, -20.0, 146.0, -463.0, 559.0, -91.0],
                        atol=1e-9)
    oracle = np.sort(np.roots(coeffs).real)
    values, vectors = hermitian_eig(m)
    npt.assert_allclose(values, oracle, atol=1e-9)
    npt.assert_allclose(values,
                        [0.191329001415386, 2.655140695369491,
                         4.648669197494280, 5.504861105720843, 7.0],
                        atol=1e-9)
    npt.assert_allclose(vectors @ np.diag(values) @ adjoint(vectors), m,
                        atol=1e-12)


def test_hermitian_eig_rejects_non_hermitian():
    from framelab import PreconditionError

    with pytest.raises(PreconditionError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert is_hermitian(np.array([[2.0, 1.0j], [-1.0j, 3.0]]))
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_orthonormalize_spans_and_trims():
    rng = np.random.Generator(np.random.PCG64(0x0A7B))
    cols = rng.standard_normal((6, 3))
    q = orthonormalize(cols)
    npt.assert_allclose(adjoint(q) @ q, np.eye(3), atol=1e-12)
    # same span: projectors agree with the Gram-Schmidt oracle
    gs = np.linalg.qr(cols)[0]
    npt.assert_allclose(q @ adjoint(q), gs @ adjoint(gs), atol=1e-12)
    # dependent columns are trimmed
    dependent = np.column_stack([cols[:, 0], cols[:, 0], cols[:, 1]])
    trimmed = orthonormalize(dependent)
    assert trimmed.shape == (6, 2)
    npt.assert_allclose(
        trimmed @ adjoint(trimmed) @ dependent, dependent, atol=1e-12)


def test_psd_check_floor_behaviour():
    assert psd_check(np.diag([1.0, 0.0]))
    assert psd_check(np.zeros((2, 2)))
    assert not psd_check(np.diag([1.0, -1e-6]))
    # dips smaller than the scaled floor are forgiven
    assert psd_check(np.diag([1.0, -1e-11]))


def test_operator_norm_values():
    assert operator_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0)
    u = np.array([[1.0], [2.0]])
    v = np.array([[3.0, 4.0]])
    assert operator_norm(u @ v) == pytest.approx(np.sqrt(5.0) * 5.0)
    assert operator_norm(np.zeros((0, 3))) == 0.0


def test_operator_norm_has_the_bits_of_the_spectral_norm():
    rng = np.random.Generator(np.random.PCG64(0x2A0B))
    for _ in range(200):
        rows, cols = rng.integers(1, 17, size=2)
        m = rng.standard_normal((rows, cols)) * 10.0 ** rng.uniform(-6, 6)
        if rng.random() < 0.5:
            m = m + 1j * rng.standard_normal((rows, cols))
        assert operator_norm(m) == float(np.linalg.norm(m, 2))


def _random_columns(rng, shape, scale, complex_field):
    x = rng.standard_normal(shape) * scale
    if complex_field:
        x = x + 1j * rng.standard_normal(shape) * scale
    return x


def _assert_column_norms_have_the_bits_of_numpy_norm(x, label):
    reference = np.linalg.norm(x, axis=-1)
    columns = np.ascontiguousarray(np.swapaxes(x, -1, -2))
    fresh = column_norms(columns)
    out = np.empty(x.shape[:-1])
    if np.iscomplexobj(x):
        written = column_norms(columns, out=out, squares=np.empty_like(columns))
    else:
        # a real array may be its own scratch, squared in place
        squared = columns.copy()
        written = column_norms(squared, out=out, squares=squared)
    assert written is out
    for norms in (fresh, written):
        assert norms.dtype == reference.dtype and norms.shape == reference.shape
        assert norms.tobytes() == reference.tobytes(), label


@pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
def test_column_norms_have_the_bits_of_numpy_norm(complex_field):
    # below 8 rows numpy's norm adds a column's squares in turn, the order in
    # which one reduce over axis -2 adds the rows
    rng = np.random.Generator(np.random.PCG64(0x1A57))
    for width in range(8):
        for scale in (1e-6, 1.0, 1e6):
            shape = (int(rng.integers(1, 4)), int(rng.integers(1, 300)), width)
            x = _random_columns(rng, shape, scale, complex_field)
            _assert_column_norms_have_the_bits_of_numpy_norm(x, (width, scale))
    # blocks of many probes, as the kernel's are (173 probes at 6 members)
    for width in range(1, 8):
        for probes in (173, 200):
            for scale in (1e-6, 1.0, 1e6):
                shape = (probes, int(rng.integers(1, 300)), width)
                x = _random_columns(rng, shape, scale, complex_field)
                _assert_column_norms_have_the_bits_of_numpy_norm(x, (shape, scale))


# Blocks of more entries are left out, to keep the test's memory small: 173
# probes of 129 rows and 512 subsets would be 11M entries.
_MAX_BLOCK_ENTRIES = 1 << 20


def _assert_each_probe_alone_has_the_bits_of_its_block_row(rows, subsets, complex_field, rng):
    for probes in (1, 2, 173):
        if probes * rows * subsets > _MAX_BLOCK_ENTRIES:
            continue
        scale = 10.0 ** rng.uniform(-6, 6)
        x = _random_columns(rng, (probes, rows, subsets), scale, complex_field)
        block = column_norms(x)
        for i in range(probes):
            alone = column_norms(np.ascontiguousarray(x[i:i + 1]))
            assert alone.tobytes() == block[i:i + 1].tobytes(), (probes, rows, subsets, i)


@pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
def test_column_norms_of_a_block_are_those_of_each_probe_alone(complex_field):
    # the perturbation kernel's verdict may not depend on its probe blocks; with
    # one subset numpy sums the rows pairwise, still per probe
    rng = np.random.Generator(np.random.PCG64(0xB10C))
    for rows in [*range(1, 41), 64, 129]:
        for subsets in (1, 2, 3, 63, 512):
            if complex_field and rows * subsets == 1:
                continue  # the one-entry complex case: see the test below
            _assert_each_probe_alone_has_the_bits_of_its_block_row(
                rows, subsets, complex_field, rng)


@pytest.mark.xfail(strict=True, reason=(
    "numpy multiplies a one-entry complex array in place in its scalar loop, "
    "whose product rounds otherwise than the vector loop a block takes"))
def test_column_norms_of_one_complex_entry_are_those_of_its_block_row():
    rng = np.random.Generator(np.random.PCG64(0xB10C))
    _assert_each_probe_alone_has_the_bits_of_its_block_row(1, 1, True, rng)


@pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
def test_column_norms_copy_no_row(complex_field):
    # rows of a (probes, rows, subsets) block interleave in memory, and one
    # reduce over them copies none, so a call with its scratch and output
    # given allocates less than one row of the block at every width
    rng = np.random.Generator(np.random.PCG64(0xC0B1))
    subsets = 512
    for probes in (1, 4, 16):
        for width in [*range(1, 17), 64, 129]:
            x = _random_columns(rng, (probes, width, subsets), 1.0, complex_field)
            squares = np.empty_like(x) if complex_field else x
            out = np.empty((probes, subsets))
            column_norms(x, out=out, squares=squares)
            tracemalloc.start()
            try:
                column_norms(x, out=out, squares=squares)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < probes * subsets * 8, (probes, width, peak)


def test_douglas_factor_positive_pair():
    rng = np.random.Generator(np.random.PCG64(0xD0C))
    l2 = rng.standard_normal((4, 6))
    g = rng.standard_normal((6, 3))
    l1 = l2 @ g
    fac = douglas_factor(l1, l2)
    assert fac.included
    assert fac.residual <= 1e-10
    assert fac.range_residual <= 1e-10
    # minimal factor solves the equation and its norm matches lambda_min
    assert operator_norm(l2 @ fac.u_min - l1) <= 1e-10
    assert fac.lambda_min == pytest.approx(operator_norm(fac.u_min))
    # the PSD route agrees: l1 l1* <= lambda^2 l2 l2*, sharp at lambda_min
    lam = fac.lambda_min
    assert psd_check(lam**2 * (l2 @ adjoint(l2)) - l1 @ adjoint(l1))
    assert not psd_check((0.99 * lam) ** 2 * (l2 @ adjoint(l2)) - l1 @ adjoint(l1))


def test_douglas_factor_scales_the_factorization_residual_by_l2_and_u_min():
    # L2 = q diag(1, 3e-8) r is invertible, so ran(q) sits in ran(L2); forming
    # L2 u_min rounds at |L2| |u_min| ~ 3e7, far above |L1| = 1
    rng = np.random.default_rng(4)
    q = np.linalg.qr(rng.standard_normal((2, 2)))[0]
    r = np.linalg.qr(rng.standard_normal((2, 2)))[0]
    fac = douglas_factor(q, q @ np.diag([1.0, 3e-8]) @ r)
    assert fac.included
    assert fac.lambda_min == pytest.approx(1.0 / 3e-8, rel=1e-6)


def test_douglas_factor_negative_pair():
    t = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    k = np.eye(3)
    fac = douglas_factor(k, t)
    assert not fac.included
    assert fac.range_residual > 0.9  # e3 is fully outside ran(t)


def test_douglas_suite_negatives_are_rejected():
    suite = load_suite("douglas_suite.json")
    for case in suite["negatives"][:8]:
        t = decode_case_matrix(case, "t")
        k = decode_case_matrix(case, "k")
        fac = douglas_factor(k, t)
        assert not fac.included
        assert fac.range_residual > 1e-3


def test_unit_probes_deterministic_and_unit_norm():
    probes = unit_probes(3, 5, seed=123)
    again = unit_probes(3, 5, seed=123)
    npt.assert_array_equal(probes, again)
    assert probes.shape == (8, 3)
    npt.assert_allclose(probes[:3], np.eye(3), atol=0.0)
    npt.assert_allclose(np.linalg.norm(probes, axis=1), 1.0, atol=1e-12)
    complex_probes = unit_probes(2, 3, complex_field=True, seed=9)
    assert complex_probes.dtype == np.complex128
    npt.assert_allclose(np.linalg.norm(complex_probes, axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
def test_psd_check_of_an_exactly_hermitian_matrix_runs_no_svd(linalg_calls, complex_field):
    rng = np.random.Generator(np.random.PCG64(0x75D))
    a = rng.standard_normal((6, 6))
    if complex_field:
        a = a + 1j * rng.standard_normal((6, 6))
    gram = a @ adjoint(a)
    hermitian = gram + adjoint(gram)
    assert np.array_equal(hermitian, adjoint(hermitian))
    assert psd_check(hermitian)
    assert not psd_check(-hermitian)
    assert linalg_calls == {"svd": 0, "eigvalsh": 2, "pinv": 0}

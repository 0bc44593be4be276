"""Yes/no spectral checks decided by a Frobenius bracket give the SVD's verdicts."""

import math

import numpy as np

from framelab import ToleranceProfile
from framelab.numerics import (
    adjoint,
    is_hermitian,
    operator_norm,
    within_scale,
)

PROFILES = (
    ToleranceProfile(),
    ToleranceProfile(tau_abs=0.0, tau_rel=0.0),
    ToleranceProfile(tau_abs=0.0, tau_rel=1e-9),
    ToleranceProfile(tau_abs=1e-300, tau_rel=0.0),
    ToleranceProfile(tau_abs=1e-10, tau_rel=0.5),
)
# The extremes make |m|_F underflow (1e-200, 1e-160) or overflow (1e160, 1e200).
SCALES = (1e-200, 1e-160, 1e-150, 1e-100, 1e-10, 1.0, 1e10, 1e100, 1e150, 1e154, 1e160, 1e200)
# Relative offsets around each pivot: inside, at and just past the bracket's margin.
OFFSETS = (0.0, 1e-15, -1e-15, 1e-13, -1e-13, 1e-12, -1e-12, 1e-11, -1e-11, 1e-6, -1e-6, 0.5, -0.5)


def gaussian(rng, shape, complex_field):
    g = rng.standard_normal(shape)
    return g + 1j * rng.standard_normal(shape) if complex_field else g


def low_rank(rng, rows, cols, rank, scale, complex_field):
    """rows x cols of the given rank, singular values in [scale / 20, scale]."""
    u = np.linalg.qr(gaussian(rng, (rows, rank), complex_field))[0]
    v = np.linalg.qr(gaussian(rng, (cols, rank), complex_field))[0]
    sv = scale * np.exp(-3.0 * rng.random(rank))
    return (u * sv) @ adjoint(v)


def cases(seed, count):
    rng = np.random.Generator(np.random.PCG64(seed))
    for i in range(count):
        complex_field = bool(i % 2)
        rows, cols = (int(x) for x in rng.integers(1, 17, size=2))
        rank = int(rng.integers(1, min(rows, cols) + 1))
        scale = SCALES[i % len(SCALES)] * 10.0 ** rng.uniform(-2, 2)
        yield low_rank(rng, rows, cols, rank, scale, complex_field)


def pivots(m):
    """The SVD's norm and both bracket ends (unwidened) of ``m``."""
    with np.errstate(over="ignore"):
        fro = float(np.linalg.norm(m))
    return operator_norm(m), fro, fro / math.sqrt(min(m.shape))


def near(values):
    out = [0.0]
    for value in values:
        out += [value * (1.0 + d) for d in OFFSETS]
        out += [np.nextafter(value, math.inf), np.nextafter(value, -math.inf)]
    return [float(v) for v in out if math.isfinite(v)]


def norm_at_most(m, t):
    """``|m|_2 <= t``: a matrix against a number, under a profile whose threshold is t."""
    return within_scale(m, 1.0, ToleranceProfile(tau_abs=t, tau_rel=0.0))


def test_norm_at_most_gives_the_svd_verdict():
    checked = 0
    for m in cases(0xB1A, 480):
        s = operator_norm(m)
        for t in near(pivots(m)):
            if t >= 0.0:
                assert norm_at_most(m, t) == (s <= t), (m.shape, s, t)
                checked += 1
    assert norm_at_most(np.zeros((3, 2)), 0.0)
    assert not norm_at_most(np.full((2, 2), 1e-320), 0.0)
    assert checked > 10_000


def test_within_scale_gives_the_svd_verdict():
    checked = 0
    for m in cases(0xB1B, 240):
        s = operator_norm(m)
        for tol in PROFILES:
            reference = tol.for_scale(s)
            for value in near([tol.for_scale(p) for p in pivots(m)]):
                assert within_scale(value, m, tol) == (value <= reference), (m.shape, s, value)
                assert within_scale(value, s, tol) == (value <= reference), (s, value)
                checked += 2
    assert checked > 10_000


def test_is_hermitian_gives_the_svd_verdict():
    rng = np.random.Generator(np.random.PCG64(0xB1C))
    checked = 0
    for i, m in enumerate(cases(0xB1D, 180)):
        n = min(m.shape)
        h = m[:n, :n] + adjoint(m[:n, :n])
        skew = gaussian(rng, (n, n), bool(i % 2))
        skew = skew - adjoint(skew)
        skew_norm = operator_norm(skew)
        for tol in PROFILES:
            # |skew-part| placed around the threshold of the Hermitian part
            target = tol.for_scale(operator_norm(h))
            for size in near([target / 2.0]):
                candidate = h + (size / skew_norm) * skew if skew_norm else h
                expected = (operator_norm(candidate - adjoint(candidate))
                            <= tol.for_scale(operator_norm(candidate)))
                assert is_hermitian(candidate, tol) == expected
                # the same question with a matrix on both sides
                assert within_scale(candidate - adjoint(candidate), candidate, tol) == expected
                checked += 2
    assert checked > 10_000

"""Dense spectral primitives shared by the frame machinery.

Every rank, range and positivity decision in the package is funneled through
a single :class:`ToleranceProfile` so that the various operations answer
range-inclusion and definiteness questions consistently.  All routines accept
real or complex matrices; real input is promoted only when an operation mixes
it with complex data.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "InputError",
    "PreconditionError",
    "NotAFrameError",
    "InternalConsistencyError",
    "DualConstructionError",
    "ToleranceProfile",
    "DEFAULT_TOL",
    "as_matrix",
    "real_scalar",
    "adjoint",
    "inner",
    "row_inners",
    "row_norms",
    "row_sq_norms",
    "column_norms",
    "rounding_bound",
    "operator_norm",
    "within_scale",
    "within_relative",
    "at_most",
    "at_least",
    "is_hermitian",
    "hermitian_eig",
    "significant_rank",
    "pinv",
    "numerical_rank",
    "orthonormalize",
    "psd_check",
    "psd_eig",
    "DouglasFactorization",
    "douglas_factor",
    "unit_probes",
]


class InputError(ValueError):
    """Malformed argument: wrong shape, non-finite entries, unknown name."""


class PreconditionError(ValueError):
    """A documented precondition of the operation does not hold."""


class NotAFrameError(PreconditionError):
    """Range inclusion failed where the operation needs a frame."""


class InternalConsistencyError(RuntimeError):
    """Two mathematically equivalent code paths disagreed beyond tolerance."""


class DualConstructionError(RuntimeError):
    """No tested subspace reading produced a certified dual."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = dict(residuals or {})


@dataclass(frozen=True)
class ToleranceProfile:
    """Absolute/relative tolerance pair governing all numerical decisions.

    ``for_scale(s)`` gives the effective tolerance for residuals living at
    scale ``s``; ``rank_cutoff`` is the singular-value threshold below which
    directions are treated as numerically zero; ``psd_floor`` is the (negative)
    eigenvalue floor used by positive-semidefiniteness checks.
    """

    tau_abs: float = 1e-10
    tau_rel: float = 1e-9

    def __post_init__(self):
        if not (self.tau_abs >= 0.0 and np.isfinite(self.tau_abs)):
            raise InputError("tau_abs must be finite and nonnegative")
        if not (self.tau_rel >= 0.0 and np.isfinite(self.tau_rel)):
            raise InputError("tau_rel must be finite and nonnegative")

    def for_scale(self, scale: float) -> float:
        return self.tau_abs + self.tau_rel * max(float(scale), 1.0)  # NaN stays NaN

    def rank_cutoff(self, sigma_max: float) -> float:
        return self.tau_abs + self.tau_rel * float(sigma_max)

    def psd_floor(self, norm: float) -> float:
        return -(self.tau_abs + self.tau_rel * float(norm))


DEFAULT_TOL = ToleranceProfile()


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and normalize a 2-D array to float64 or complex128."""
    try:
        arr = np.asarray(a)
    except ValueError as exc:
        raise InputError(f"{name} is not a rectangular array: {exc}") from exc
    if arr.dtype.kind not in "biufc":  # objects, strings, dates
        raise InputError(f"{name} is not a rectangular numeric array")
    if arr.ndim != 2:
        raise InputError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.dtype.kind == "c":
        arr = arr.astype(np.complex128, copy=False)
    else:
        arr = arr.astype(np.float64, copy=False)
    if arr.size and not np.isfinite(arr).all():
        raise InputError(f"{name} contains non-finite entries")
    return arr


def real_scalar(value, message: str) -> float:
    """``value`` as a float if it is a real number, else ``InputError(message)``.

    A bool or a string is not a real number here, though Python and
    ``float()`` would take them as one.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InputError(message)
    return float(value)


def adjoint(m: np.ndarray) -> np.ndarray:
    return np.conj(m).T


def inner(a, b) -> complex:
    """Inner product <a, b>, linear in the first argument."""
    return complex(np.vdot(np.asarray(b), np.asarray(a)))


def row_inners(a, b) -> np.ndarray:
    """<a, b> along the last axis, with the bits of :func:`inner` per pair."""
    return (np.conj(b)[..., None, :] @ a[..., :, None])[..., 0, 0]


def row_norms(x) -> np.ndarray:
    """|x| along the last axis, with the bits of ``np.linalg.norm`` per vector.

    That is a BLAS dot of x with itself, over the strided real and imaginary
    views when x is complex; a contiguous copy of them would round otherwise.
    """
    def dots(y):
        return (y[..., None, :] @ y[..., :, None])[..., 0, 0]
    if np.iscomplexobj(x):
        return np.sqrt(dots(x.real) + dots(x.imag))
    return np.sqrt(dots(x))


def row_sq_norms(x) -> np.ndarray:
    """|x|^2 with the bits of ``float(norm(x))**2``: C ``pow``, not ``x * x``."""
    return np.float_power(row_norms(x), 2.0)


def column_norms(x, squares=None) -> np.ndarray:
    """|x| along axis -2: one ``np.add.reduce`` of the squares over that axis.

    numpy reduces an axis that is not the innermost one row at a time, so an
    entry of the result depends on its own column alone, never on the rest
    of x; with one column it sums the axis pairwise, still per column.
    Below 8 rows the order, rows in turn, is also ``np.linalg.norm``'s.
    ``squares`` (x's shape and dtype) receives the squares and may be a real
    x, squared in place; a complex x should not be its own: numpy multiplies
    a one-entry array in place in a scalar loop that rounds otherwise.
    """
    if np.iscomplexobj(x):
        sq = np.multiply(np.conjugate(x), x, out=squares).real
    else:
        # x.conj() is x, and x * x is one correctly rounded product either way
        sq = np.square(x, out=squares)
    out = np.add.reduce(sq, axis=-2)
    return np.sqrt(out, out=out)


# Above the absolute error gradual underflow can leave in a sum, dot product or
# norm of fewer than 2**20 float64 terms: at most 2**-1075 per rounded product,
# and so at most sqrt(2**20 * 2**-1075) = 2**-527.5 in a norm.
_UNDERFLOW_ERROR = 2.0**-500


def rounding_bound(count: int, magnitude):
    """``gamma_count * magnitude + 2**-500`` per entry: the rounding error of a
    float64 sum whose terms each take at most ``count`` roundings and whose
    magnitudes add up to at most ``magnitude``.

    ``gamma_count = count u / (1 - count u)``, u = 2**-53, bounds the relative
    error of ``count`` roundings (Higham, *Accuracy and Stability of Numerical
    Algorithms*, ch. 3).  The constant covers gradual underflow, where that
    relative model fails.  NaN in, NaN out.
    """
    unit = count * 2.0**-53
    bound = np.multiply(unit / (1.0 - unit), magnitude)
    bound += _UNDERFLOW_ERROR
    return bound


def operator_norm(m) -> float:
    """Largest singular value; 0.0 for empty matrices."""
    m = as_matrix(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False).max())


# Relative slack of the Frobenius bracket.  |m|_F, a sum of m.size squares,
# may be off by m.size * eps; the SVD's largest singular value by some
# min(r, c) * eps, which the fixed part covers far past desk scale.
_BRACKET_MARGIN = 1e-12
_EPS = 2.0**-52
# Below this |m|_F the squares it sums may be subnormal and short of digits.
_FROBENIUS_FLOOR = 1e-150


def _norm_bracket(m: np.ndarray) -> tuple:
    """(lo, hi) around the operator_norm of a validated matrix ``m``.

    ``|m|_F / sqrt(min(r, c)) <= |m|_2 <= |m|_F``, widened by the margin; when
    |m|_F may have underflowed or overflowed, both ends are the SVD's value.
    """
    fro = math.sqrt(np.vdot(m, m).real)
    if _FROBENIUS_FLOOR < fro < math.inf:
        margin = _BRACKET_MARGIN + m.size * _EPS
        return fro / math.sqrt(min(m.shape)) * (1.0 - margin), fro * (1.0 + margin)
    if fro == 0.0 and not m.any():
        return 0.0, 0.0
    s = operator_norm(m)
    return s, s


def within_scale(d, m, tol: ToleranceProfile) -> bool:
    """``|d| <= tol.for_scale(|m|)``, a 2-D array standing for its operator norm
    and a number for itself.  The SVD of d, then of m, runs only where the Frobenius
    brackets cannot decide, so the verdict is the SVD's; ``for_scale`` is nondecreasing."""
    d_lo, d_hi = _norm_bracket(d) if isinstance(d, np.ndarray) else (d, d)
    m_lo, m_hi = _norm_bracket(m) if isinstance(m, np.ndarray) else (m, m)
    if d_lo < d_hi:
        if d_hi <= tol.for_scale(m_lo):
            return True
        if d_lo > tol.for_scale(m_hi):
            return False
        d_hi = operator_norm(d)
    if d_hi <= tol.for_scale(m_lo):
        return True
    if not d_hi <= tol.for_scale(m_hi):  # also a NaN d, never within
        return False
    return d_hi <= tol.for_scale(operator_norm(m))


def within_relative(residual, scale, tol: ToleranceProfile):
    """``residual <= tol.for_scale(1) * scale`` per entry: a residual relative to ``scale``."""
    return residual <= tol.for_scale(1.0) * scale


def _shifted(bound, scale, sign: float, tol: ToleranceProfile):
    """``bound + sign * tol.for_scale(scale)`` per entry, in one new buffer."""
    # np.maximum(s, 1) is for_scale's max(s, 1.0), NaN for a NaN s; negation is exact
    t = np.maximum(scale, 1.0)
    t *= sign * tol.tau_rel
    t += sign * tol.tau_abs
    t += bound
    return t


def at_most(value, bound, scale, tol: ToleranceProfile):
    """``value <= bound + tol.for_scale(scale)`` per entry."""
    return value <= _shifted(bound, scale, 1.0, tol)


def at_least(value, bound, scale, tol: ToleranceProfile):
    """``value >= bound - tol.for_scale(scale)`` per entry."""
    return value >= _shifted(bound, scale, -1.0, tol)


def is_hermitian(m, tol: ToleranceProfile = DEFAULT_TOL) -> bool:
    """``|m - m*| <= tol.for_scale(|m|)`` for a square ``m``."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    return within_scale(m - adjoint(m), m, tol)


def _hermitian_part(m: np.ndarray, tol: ToleranceProfile) -> np.ndarray:
    """``(m + m*) / 2``, which keeps roundoff-level asymmetry out of an eigensolver,
    of a validated ``m`` that is square and Hermitian within ``tol``."""
    if m.shape[0] != m.shape[1]:
        raise PreconditionError(f"square matrix required, got {m.shape}")
    if not is_hermitian(m, tol):
        raise PreconditionError("matrix is not Hermitian within tolerance")
    return (m + adjoint(m)) / 2.0


def hermitian_eig(m, tol: ToleranceProfile = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with real eigenvalues ``w`` ascending and orthonormal
    eigenvector columns ``v``.  Rejects non-square or non-Hermitian input.
    """
    return np.linalg.eigh(_hermitian_part(as_matrix(m), tol))


def significant_rank(s: np.ndarray, tol: ToleranceProfile) -> int:
    """Number of singular values (descending) above ``tol.rank_cutoff(s[0])``.

    A rank, range or pseudo-inverse decision built on it keeps exactly these
    leading directions and treats the rest as exact zeros.
    """
    if not s.size:
        return 0
    return int(np.count_nonzero(s > tol.rank_cutoff(s[0])))


def pinv(m, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with the profile's rank cutoff.

    Only the significant directions are inverted: singular values at or
    below ``tol.rank_cutoff(sigma_max)`` are treated as exact zeros.
    """
    m = as_matrix(m)
    if m.size == 0:
        return np.zeros((m.shape[1], m.shape[0]), dtype=m.dtype)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    inv = np.zeros_like(s)
    r = significant_rank(s, tol)
    inv[:r] = 1.0 / s[:r]
    return adjoint(vh) @ (inv[:, None] * adjoint(u))


def numerical_rank(m, tol: ToleranceProfile = DEFAULT_TOL) -> int:
    m = as_matrix(m)
    if m.size == 0:
        return 0
    return significant_rank(np.linalg.svd(m, compute_uv=False), tol)


def orthonormalize(columns, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis for the column space of ``columns``.

    The output has exactly ``numerical_rank(columns)`` columns; rank-deficient
    input collapses, and a zero matrix yields a basis with no columns.
    """
    a = as_matrix(columns, "columns")
    if a.shape[1] == 0 or a.size == 0:
        return np.zeros((a.shape[0], 0), dtype=a.dtype)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u[:, :significant_rank(s, tol)]


def _clears_psd_floor(w: np.ndarray, tol: ToleranceProfile) -> bool:
    """True iff the spectrum ``w`` is empty or clears the PSD floor."""
    return not w.size or bool(w.min() >= tol.psd_floor(float(np.max(np.abs(w)))))


def psd_check(m, tol: ToleranceProfile = DEFAULT_TOL) -> bool:
    """True iff ``m`` is Hermitian and its spectrum clears the PSD floor."""
    return _clears_psd_floor(np.linalg.eigvalsh(_hermitian_part(as_matrix(m), tol)), tol)


def psd_eig(m, tol: ToleranceProfile = DEFAULT_TOL):
    """:func:`psd_check`'s verdict and :func:`hermitian_eig`'s ``(w, v)`` from one eigh."""
    w, v = hermitian_eig(m, tol)
    return _clears_psd_floor(w, tol), w, v


@dataclass(frozen=True)
class DouglasFactorization:
    """Outcome of the range-inclusion / factorization test L1 = L2 u.

    ``included`` reports whether ran(L1) lies inside ran(L2); when it does,
    ``u_min`` is the minimal-norm solution pinv(L2) @ L1 and ``lambda_min`` its
    operator norm, which equals inf{ sqrt(a) : L1 L1* <= a L2 L2* }.
    ``residual`` is |L1 - L2 u_min| and ``range_residual`` the mass of L1
    outside ran(L2); both in operator norm.
    """

    included: bool
    u_min: np.ndarray
    lambda_min: float
    residual: float
    range_residual: float


def douglas_factor(l1, l2, tol: ToleranceProfile = DEFAULT_TOL) -> DouglasFactorization:
    """Test ran(L1) subset-of ran(L2) and produce the minimal factor.

    When ``included`` holds, the three classical equivalences are certified
    numerically: the factorization residual |L1 - L2 u_min| is small against
    |L2| |u_min|, the scale at which the product L2 u_min rounds, and
    lambda_min^2 L2 L2* - L1 L1* passes :func:`psd_check`.  ``u_min`` always
    satisfies ker(u_min) = ker(L1) and ran(u_min) inside ran(L2*).
    """
    l1 = as_matrix(l1, "l1")
    l2 = as_matrix(l2, "l2")
    if l1.shape[0] != l2.shape[0]:
        raise PreconditionError(
            f"operators must share their codomain: {l1.shape[0]} != {l2.shape[0]}"
        )
    l2_pinv = pinv(l2, tol)
    proj = l2 @ l2_pinv
    range_residual = operator_norm(l1 - proj @ l1)
    u_min = l2_pinv @ l1
    lambda_min = operator_norm(u_min)
    residual = operator_norm(l1 - l2 @ u_min)
    included = within_scale(range_residual, l1, tol)
    if included:
        if not within_scale(residual, lambda_min * l2, tol):
            raise InternalConsistencyError(
                f"range inclusion held but factorization residual {residual:g} "
                f"exceeds {tol.for_scale(lambda_min * operator_norm(l2)):g}"
            )
        gap = lambda_min**2 * (l2 @ adjoint(l2)) - l1 @ adjoint(l1)
        if not psd_check(gap, tol):
            raise InternalConsistencyError(
                "range inclusion held but lambda_min^2 L2 L2* - L1 L1* is not PSD"
            )
    return DouglasFactorization(
        included=included,
        u_min=u_min,
        lambda_min=float(lambda_min),
        residual=float(residual),
        range_residual=float(range_residual),
    )


def unit_probes(dim: int, count: int, *, complex_field: bool = False, seed: int = 0x5EED) -> np.ndarray:
    """Deterministic probe set: the standard basis followed by seeded unit vectors.

    Returns an array of shape (n_probes, dim) whose rows have unit norm.
    """
    if dim <= 0:
        raise InputError("dim must be positive")
    if count < 0:
        raise InputError(f"probe count must be nonnegative, got {count}")
    dtype = np.complex128 if complex_field else np.float64
    probes = [np.eye(dim, dtype=dtype)]
    if count:
        rng = np.random.Generator(np.random.PCG64(seed))
        block = rng.standard_normal((count, dim))
        if complex_field:
            block = block + 1j * rng.standard_normal((count, dim))
        norms = np.linalg.norm(block, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        probes.append((block / norms).astype(dtype))
    return np.vstack(probes)

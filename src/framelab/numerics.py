"""Dense spectral primitives shared by the frame machinery.

Every rank, range and positivity decision in the package is funneled through
a single :class:`ToleranceProfile` so that the various operations answer
range-inclusion and definiteness questions consistently.  All routines accept
real or complex matrices; real input is promoted only when an operation mixes
it with complex data.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "InputError",
    "PreconditionError",
    "NotAFrameError",
    "InternalConsistencyError",
    "ToleranceProfile",
    "DEFAULT_TOL",
    "as_matrix",
    "adjoint",
    "inner",
    "row_inners",
    "row_norms",
    "row_sq_norms",
    "last_axis_norms",
    "operator_norm",
    "is_hermitian",
    "hermitian_eig",
    "significant_rank",
    "pinv_from_svd",
    "pinv",
    "numerical_rank",
    "orthonormalize",
    "psd_check",
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
        return self.tau_abs + self.tau_rel * max(1.0, float(scale))

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
    if arr.dtype == object:
        raise InputError(f"{name} is not a rectangular numeric array")
    if arr.ndim != 2:
        raise InputError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if np.iscomplexobj(arr):
        arr = arr.astype(np.complex128, copy=False)
    else:
        arr = arr.astype(np.float64, copy=False)
    if arr.size and not np.all(np.isfinite(arr)):
        raise InputError(f"{name} contains non-finite entries")
    return arr


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


def last_axis_norms(x, out=None, squares=None) -> np.ndarray:
    """|x| along the last axis, with the bits of ``np.linalg.norm(x, axis=-1)``.

    numpy forms ``(x.conj() * x).real`` and sums each row pairwise: in turn
    below 8 entries, else in 8 running sums over strides of 8, combined as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, and then the rest in turn; past
    128 entries it halves the row, and such rows go to ``np.linalg.norm``.
    Here each of those adds is one whole-array add over a column, which on
    ``(probes, subsets, dim)`` stacks takes about a third of the time of the
    strided reduction.  ``squares`` (x's shape and dtype) is scratch and
    ``out`` (x's shape without its last axis, real) receives the norms; with
    both given the call allocates nothing.
    """
    width = x.shape[-1]
    if width > 128:
        norms = np.linalg.norm(x, axis=-1)
        if out is None:
            return norms
        out[...] = norms
        return out
    if np.iscomplexobj(x):
        sq = np.conjugate(x, out=squares)
        sq = np.multiply(sq, x, out=sq).real
    else:
        # x.conj() is x, and x * x is one correctly rounded product either way
        sq = np.square(x, out=squares)
    if out is None:
        out = np.empty(x.shape[:-1], dtype=sq.dtype)
    if width < 2:
        # numpy adds -0.0 + s0, or returns 0.0 for an empty row
        if width:
            np.copyto(out, sq[..., 0])
        else:
            out.fill(0.0)
        return np.sqrt(out, out=out)

    def add_into(target, source):
        # one column at a time: numpy copies a multi-column view it may overlap
        np.add(sq[..., target], sq[..., source], out=sq[..., target])

    second, rest = 1, 2
    if width >= 8:
        rest = width - width % 8
        for start in range(8, rest, 8):
            for r in range(8):
                add_into(r, start + r)
        for target, source in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6)):
            add_into(target, source)
        second = 4
    np.add(sq[..., 0], sq[..., second], out=out)
    for column in range(rest, width):
        np.add(out, sq[..., column], out=out)
    return np.sqrt(out, out=out)


def operator_norm(m) -> float:
    """Largest singular value; 0.0 for empty matrices."""
    m = as_matrix(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False).max())


def is_hermitian(m, tol: ToleranceProfile | None = None) -> bool:
    m = as_matrix(m)
    tol = tol or DEFAULT_TOL
    if m.shape[0] != m.shape[1]:
        return False
    if m.size == 0:
        return True
    return operator_norm(m - adjoint(m)) <= tol.for_scale(operator_norm(m))


def hermitian_eig(m, tol: ToleranceProfile | None = None):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with real eigenvalues ``w`` ascending and orthonormal
    eigenvector columns ``v``.  Rejects non-square or non-Hermitian input.
    """
    m = as_matrix(m)
    tol = tol or DEFAULT_TOL
    if m.shape[0] != m.shape[1]:
        raise PreconditionError(f"square matrix required, got {m.shape}")
    if not is_hermitian(m, tol):
        raise PreconditionError("matrix is not Hermitian within tolerance")
    # Symmetrize so roundoff-level asymmetry cannot leak into the solve.
    h = (m + adjoint(m)) / 2.0
    w, v = np.linalg.eigh(h)
    return w, v


def significant_rank(s: np.ndarray, tol: ToleranceProfile) -> int:
    """Number of singular values (descending) above ``tol.rank_cutoff(s[0])``.

    Every rank, range and pseudo-inverse decision in the package keeps exactly
    these leading directions and treats the rest as exact zeros.
    """
    if not s.size:
        return 0
    return int(np.count_nonzero(s > tol.rank_cutoff(s[0])))


def pinv_from_svd(u: np.ndarray, s: np.ndarray, vh: np.ndarray,
                  tol: ToleranceProfile) -> np.ndarray:
    """Pseudo-inverse from an SVD, inverting only the significant directions."""
    inv = np.zeros_like(s)
    r = significant_rank(s, tol)
    inv[:r] = 1.0 / s[:r]
    return adjoint(vh) @ (inv[:, None] * adjoint(u))


def pinv(m, tol: ToleranceProfile | None = None) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with the profile's rank cutoff.

    Singular values at or below ``tol.rank_cutoff(sigma_max)`` are treated as
    exact zeros.
    """
    m = as_matrix(m)
    if m.size == 0:
        return np.zeros((m.shape[1], m.shape[0]), dtype=m.dtype)
    return pinv_from_svd(*np.linalg.svd(m, full_matrices=False), tol or DEFAULT_TOL)


def numerical_rank(m, tol: ToleranceProfile | None = None) -> int:
    m = as_matrix(m)
    if m.size == 0:
        return 0
    return significant_rank(np.linalg.svd(m, compute_uv=False), tol or DEFAULT_TOL)


def orthonormalize(columns, tol: ToleranceProfile | None = None) -> np.ndarray:
    """Orthonormal basis for the column space of ``columns``.

    The output has exactly ``numerical_rank(columns)`` columns; rank-deficient
    input collapses, and a zero matrix yields a basis with no columns.
    """
    a = as_matrix(columns, "columns")
    if a.shape[1] == 0 or a.size == 0:
        return np.zeros((a.shape[0], 0), dtype=a.dtype)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u[:, :significant_rank(s, tol or DEFAULT_TOL)]


def psd_check(m, tol: ToleranceProfile | None = None) -> bool:
    """True iff ``m`` is Hermitian and its spectrum clears the PSD floor."""
    m = as_matrix(m)
    tol = tol or DEFAULT_TOL
    if m.shape[0] != m.shape[1]:
        raise PreconditionError(f"square matrix required, got {m.shape}")
    if m.size == 0:
        return True
    if not is_hermitian(m, tol):
        raise PreconditionError("matrix is not Hermitian within tolerance")
    w = np.linalg.eigvalsh((m + adjoint(m)) / 2.0)
    norm = float(np.max(np.abs(w))) if w.size else 0.0
    return bool(w.min() >= tol.psd_floor(norm))


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


def douglas_factor(l1, l2, tol: ToleranceProfile | None = None) -> DouglasFactorization:
    """Test ran(L1) subset-of ran(L2) and produce the minimal factor.

    When ``included`` holds, the three classical equivalences are certified
    numerically: the factorization residual is small, and
    lambda_min^2 L2 L2* - L1 L1* passes :func:`psd_check`.  ``u_min`` always
    satisfies ker(u_min) = ker(L1) and ran(u_min) inside ran(L2*).
    """
    l1 = as_matrix(l1, "l1")
    l2 = as_matrix(l2, "l2")
    tol = tol or DEFAULT_TOL
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
    threshold = tol.for_scale(operator_norm(l1))
    included = bool(range_residual <= threshold)
    if included:
        if residual > threshold:
            raise InternalConsistencyError(
                f"range inclusion held but factorization residual {residual:g} "
                f"exceeds {threshold:g}"
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
    dtype = np.complex128 if complex_field else np.float64
    probes = [np.eye(dim, dtype=dtype)]
    extra = max(0, count)
    if extra:
        rng = np.random.Generator(np.random.PCG64(seed))
        block = rng.standard_normal((extra, dim))
        if complex_field:
            block = block + 1j * rng.standard_normal((extra, dim))
        norms = np.linalg.norm(block, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        probes.append((block / norms).astype(dtype))
    return np.vstack(probes)

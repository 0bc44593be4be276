"""Frame operators and frame verification for weighted systems.

The central objects: the block synthesis operator T mapping the direct sum of
the local coordinate spaces into the ambient space (block j equals
``v_j pi_Wj Lj*``; ``GFusionSystem.synthesis_matrix``), the frame operator
``S = T T*``, and the verdicts that a system is Bessel / a k-relative frame /
Parseval.  The optimal lower bound for an operator k is computed through the
minimal-norm solution of ``T u = k`` and is range-inclusion driven: a system
is a k-relative frame exactly when ``ran(k)`` sits inside ``ran(T)``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import BoundedOperator, GFusionSystem
from .numerics import (
    DEFAULT_TOL,
    DouglasFactorization,
    InputError,
    InternalConsistencyError,
    NotAFrameError,
    ToleranceProfile,
    adjoint,
    as_matrix,
    douglas_factor,
    inner,
    operator_norm,
    psd_check,
    within_relative,
    within_scale,
)

__all__ = [
    "FrameBounds",
    "FrameReport",
    "frame_operator",
    "subset_masks",
    "subset_frame_operators",
    "verify_k_g_fusion",
    "optimal_bounds",
    "restricted_inverse",
    "ReconstructionReport",
    "reconstruction_check",
    "CrossFrameReport",
    "cross_frame_check",
]

# subset_masks walks every nonempty subset up to this many members, and
# samples this many subsets past it.
EXHAUSTIVE_SUBSET_LIMIT = 12
SAMPLED_SUBSETS = 512


@dataclass(frozen=True)
class FrameBounds:
    """A (lower, upper) bound pair.

    The pair is not ordered: the k-frame inequality only implies
    ``lower * |k|^2 <= upper``, so a small target can give lower > upper.
    """

    lower: float
    upper: float

    def __post_init__(self):
        lo, up = float(self.lower), float(self.upper)
        if not (math.isfinite(lo) and math.isfinite(up)):
            raise InputError(f"bounds must be finite, got ({lo}, {up})")
        if lo < 0.0 or up < 0.0:
            raise InputError("bounds must be nonnegative")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)


def _probe_block(probes, dim: int) -> np.ndarray:
    """Finite probe vectors as the rows of a (probes, dim) block, else InputError."""
    block = as_matrix(probes, "probe vector")
    if block.shape[1] != dim:
        raise InputError("probe vector has wrong dimension")
    if block.shape[0] == 0:
        raise InputError("at least one probe vector is needed")
    return block


def _one_probe(f, dim: int) -> np.ndarray:
    """The probe vector ``f`` as a (1, dim) block, else InputError."""
    try:
        shape = np.shape(f)
    except ValueError as exc:
        raise InputError(f"probe vector is not a rectangular array: {exc}") from exc
    if len(shape) != 1:
        raise InputError(f"probe vector must be 1-dimensional, got shape {shape}")
    return _probe_block([f], dim)


def _require_masks(masks, size: int) -> np.ndarray:
    """``masks`` as a boolean (subsets, size) array, else InputError."""
    masks = np.asarray(masks)
    if masks.dtype != bool or masks.ndim != 2 or masks.shape[1] != size:
        raise InputError(
            f"masks must be a boolean (subsets, {size}) array, got "
            f"{masks.dtype} {masks.shape}")
    return masks


def subset_masks(size: int):
    """Deterministic family of nonempty index subsets as boolean rows.

    The rows are the ``masks`` :func:`subset_frame_operators` takes.  Up to
    ``EXHAUSTIVE_SUBSET_LIMIT`` members they are every nonempty subset, in
    binary counting order.  Past it: the full set, the singletons and their
    complements, then the first distinct non-empty rows of seeded coin-flip
    draws until there are ``SAMPLED_SUBSETS``, sorted as tuples of bools.
    """
    if size <= EXHAUSTIVE_SUBSET_LIMIT:
        # row b - 1 holds the bits of b, member j at bit j
        return (np.arange(1, 2**size)[:, None] >> np.arange(size) & 1).astype(bool)
    single = np.eye(size, dtype=bool)
    rows = np.concatenate([np.ones((1, size), dtype=bool), single, ~single])
    rng = np.random.Generator(np.random.PCG64(0x5B5E7))
    chosen = set()  # rows packed to bytes, column 0 in the high bit of byte 0
    while True:
        packed = np.packbits(rows, axis=1)
        width, raw = packed.shape[1], packed.tobytes()
        for start in range(0, len(raw), width):
            chosen.add(raw[start:start + width])
            if len(chosen) == SAMPLED_SUBSETS:
                # such bytes sort as the tuples of bools do
                keys = np.frombuffer(b"".join(sorted(chosen)), dtype=np.uint8)
                return np.unpackbits(keys.reshape(-1, width), axis=1, count=size).astype(bool)
        # one block of draws takes the same doubles as that many single draws
        draws = rng.random((SAMPLED_SUBSETS, size)) < 0.5
        rows = draws[draws.any(axis=1)]


def subset_frame_operators(system: GFusionSystem, masks,
                           other: GFusionSystem | None = None) -> np.ndarray:
    """The stack of S_I = sum_{j in I} v_j^2 (Lj pi_Wj)* (L'j pi_W'j), one per mask.

    ``masks`` is a (subsets, members) boolean array whose row i selects I_i.
    Each member term G_j is formed once and added, in ascending j, to every
    S_I that holds j, so each S_I carries the bits of its own one-subset sum.
    With ``other`` omitted these are partial frame operators of ``system``;
    with a dual system they are partial reconstruction couplings.  The
    weights are always those of ``system``.
    """
    other = system if other is None else other
    _require_shared_space(system, other)
    if other.size != system.size:
        raise InputError(
            f"base has {system.size} members but the dual has {other.size}")
    masks = _require_masks(masks, system.size)
    out = np.zeros((masks.shape[0], system.dim, system.dim), dtype=system.space.dtype)
    for j in np.flatnonzero(masks.any(axis=0)):
        term = (system.members[j][0].weight**2) * (
            adjoint(system.local_factors[j]) @ other.local_factors[j])
        np.add(out, term, out=out, where=masks[:, j, None, None])
    return out


def frame_operator(system: GFusionSystem, other: GFusionSystem | None = None) -> np.ndarray:
    """S = sum_j v_j^2 (Lj pi_Wj)* (L'j pi_W'j), summed in ascending j.

    With ``other`` omitted this is the frame operator of ``system``; with a
    dual system it is the reconstruction coupling.  The weights are always
    those of ``system``.  This is the full-set view of
    :func:`subset_frame_operators`; a partial operator S_I is that
    function's row at I's mask.
    """
    return subset_frame_operators(system, np.ones((1, system.size), dtype=bool), other)[0]


def _memoized(owner, key, compute):
    """``compute()`` once per ``(owner, key)``, kept on ``owner`` for its lifetime.

    The one memo of the package's tolerance-dependent results; a computation
    that raises stores nothing, so it raises again on the next call.
    """
    memo = vars(owner).setdefault("_memo", {})
    if key not in memo:
        memo[key] = compute()
    return memo[key]


@dataclass(frozen=True)
class FrameReport:
    """Verdicts and residuals from verifying a system against an operator k.

    ``is_bessel`` always holds in finite dimension and carries the optimal
    upper bound; ``is_frame`` is the range-inclusion verdict ran(k) in ran(T);
    ``is_parseval`` means S = k k* within tolerance.  ``optimal`` holds the
    optimal bound pair (lower is 0.0 when the system is not a k-frame); a
    frame's lower bound A is certified by S - A k k* >= 0.  When
    claimed bounds were supplied, ``claimed_lower_ok``/``claimed_upper_ok``
    record the PSD sandwich verdicts, else they are None.  The report does
    not carry its tolerance: the memo that holds it is keyed by it.
    """

    is_bessel: bool
    is_frame: bool
    is_parseval: bool
    optimal: FrameBounds
    range_inclusion_residual: float
    parseval_residual: float
    douglas: DouglasFactorization
    claimed: FrameBounds | None = None
    claimed_lower_ok: bool | None = None
    claimed_upper_ok: bool | None = None

    @property
    def claimed_valid(self) -> bool | None:
        if self.claimed is None:
            return None
        return bool(self.claimed_lower_ok and self.claimed_upper_ok)

    @property
    def passed(self) -> bool:
        """A frame, and the claimed bounds hold when any were given."""
        return self.is_frame and (self.claimed is None or self.claimed_valid)


def _require_shared_space(system: GFusionSystem, *others: GFusionSystem):
    """The one rule for pairing systems: every other system lives over ``system``'s space."""
    if any(other.space != system.space for other in others):
        raise InputError(f"a dual system must share its base's space {system.space}")


def _require_compatible(system: GFusionSystem, k: BoundedOperator, *duals: GFusionSystem):
    _require_shared_space(system, *duals)
    if k.dim != system.dim:
        raise InputError(f"operator dimension {k.dim} != system dimension {system.dim}")
    if np.result_type(system.space.dtype, k.matrix) != system.space.dtype:
        raise InputError("complex operator on a system over a real space")


def verify_k_g_fusion(system: GFusionSystem, k: BoundedOperator,
                      claimed: FrameBounds | None = None,
                      tol: ToleranceProfile = DEFAULT_TOL) -> FrameReport:
    """Full verification of the k-relative frame property.

    Bessel always holds on a finite family; the frame verdict is decided by
    the range-inclusion test ran(k) in ran(T); Parseval means S = k k*.
    The optimal lower bound is |u0|^-2 for the minimal-norm solution
    u0 = pinv(T) k, and a frame's is certified by the PSD check S - A k k* >= 0
    (:class:`InternalConsistencyError` when it fails); the optimal upper bound
    is |S|.  The analysis runs once per (system, k, tol); claimed bounds add
    their two PSD verdicts to it.
    """
    _require_compatible(system, k)
    report = _memoized(system, ("analysis", k, tol), lambda: _analyze(system, k, tol))
    if claimed is None:
        return report
    s = system.frame_matrix
    return replace(report, claimed=claimed,
                   claimed_lower_ok=psd_check(s - claimed.lower * k.times_adjoint, tol),
                   claimed_upper_ok=psd_check(claimed.upper * np.eye(system.dim) - s, tol))


def _analyze(system: GFusionSystem, k: BoundedOperator, tol: ToleranceProfile) -> FrameReport:
    if within_scale(k.norm, 1.0, tol):
        raise InputError("operator k is numerically zero; the frame condition degenerates")
    s = system.frame_matrix
    upper = operator_norm(s)
    dg = douglas_factor(k.matrix, system.synthesis_matrix, tol)
    is_frame = dg.included
    kk = k.times_adjoint
    parseval_residual = operator_norm(s - kk)
    is_parseval = within_scale(parseval_residual, kk, tol)
    if is_parseval and not is_frame:
        raise InternalConsistencyError(
            "Parseval verdict held while the range-inclusion verdict failed")
    lower = 1.0 / dg.lambda_min**2 if is_frame else 0.0
    if lower * k.norm**2 > upper * (1.0 + 1e-9) + tol.tau_abs:
        raise InternalConsistencyError(
            f"optimal lower bound {lower} times |k|^2 = {k.norm**2} exceeded "
            f"upper bound {upper}")
    if is_frame and not psd_check(s - lower * kk, tol):
        raise InternalConsistencyError(
            "optimal lower bound failed its own PSD certification")
    return FrameReport(
        is_bessel=True,
        is_frame=bool(is_frame),
        is_parseval=bool(is_parseval),
        optimal=FrameBounds(lower, upper),
        range_inclusion_residual=dg.range_residual,
        parseval_residual=float(parseval_residual),
        douglas=dg,
    )


def optimal_bounds(system: GFusionSystem, k: BoundedOperator,
                   tol: ToleranceProfile = DEFAULT_TOL) -> FrameBounds:
    """Optimal bound pair for a k-relative frame, PSD-certified.

    Raises :class:`NotAFrameError` when ran(k) is not contained in ran(T).
    The bounds are :func:`verify_k_g_fusion`'s ``optimal``: the lower bound A
    satisfies S - A k k* >= 0 while inflating A by a relative 1e-6 breaks
    positivity, and the upper bound is |S| exactly.
    """
    report = verify_k_g_fusion(system, k, tol=tol)
    if not report.is_frame:
        raise NotAFrameError(
            f"range inclusion fails: residual {report.range_inclusion_residual:g} "
            "outside ran(T)")
    return report.optimal


def restricted_inverse(system: GFusionSystem, k: BoundedOperator,
                       tol: ToleranceProfile = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """The inverse X of the frame operator along ran(k) and the projection P onto S(ran k).

    ``optimal_bounds`` gives a certified k-frame, so S is injective on ran(k):
    the rank of S B_k is B_k's column count, not the package cutoff, and one
    SVD ``S B_k = U Sigma V*`` gives X = B_k V Sigma^-1 U* and P = U U*.
    X maps S(ran k) back onto ran(k) and annihilates its orthogonal complement.
    The analysis's certificate S - A k k* >= 0 only bounds that SVD's least
    singular value below by ``A s_r(k)^2 + psd_floor(B + A |k|^2)`` (s_r(k)
    the least kept singular value of k); one not above both that bound and
    zero means S annihilates a direction of ran(k) inside the tolerance, a
    :class:`NotAFrameError`.
    For f in S(ran k) the quadratic form satisfies
    ``B^-1 |f|^2 <= <X f, f> <= A^-1 |pinv(k)|^2 |f|^2`` with (A, B) the
    optimal bounds.
    """
    bounds = optimal_bounds(system, k, tol)
    s = system.frame_matrix
    bk = k.range_basis(tol)
    if bk.shape[1] == 0:
        raise InputError("operator k is numerically zero; nothing to invert along")
    r = bk.shape[1]
    image_basis, sigma, vh = np.linalg.svd(s @ bk, full_matrices=False)
    floor = max(0.0, bounds.lower * k.singular_values[r - 1] ** 2
                + tol.psd_floor(bounds.upper + bounds.lower * k.norm**2))
    if not sigma[-1] > floor:
        raise NotAFrameError(
            f"S is not injective on ran(k): least singular value {sigma[-1]:g} of S B_k "
            f"is not above {floor:g}")
    x = bk @ (adjoint(vh) @ ((1.0 / sigma)[:, None] * adjoint(image_basis)))
    return x, image_basis @ adjoint(image_basis)


@dataclass
class ReconstructionReport:
    """Probe-level check of the quadratic reconstruction identity."""

    residual: float
    passed: bool
    projected: bool
    projection_distance: float


def reconstruction_check(system: GFusionSystem, k: BoundedOperator, f,
                         tol: ToleranceProfile = DEFAULT_TOL) -> ReconstructionReport:
    """Check <k f, f> against the member-wise expansion through X.

    ``f`` is projected onto S(ran k) first when it does not already lie there;
    the report says whether that happened.
    """
    f = _one_probe(f, system.dim)[0]
    x, p_img = restricted_inverse(system, k, tol)
    f_used = p_img @ f
    distance = float(np.linalg.norm(f - f_used))
    projected = not within_scale(distance, float(np.linalg.norm(f)), tol)
    kf = k.matrix @ f_used
    lhs = inner(kf, f_used)
    rhs = inner(x @ (system.frame_matrix @ kf), f_used)
    residual = abs(lhs - rhs)
    passed = within_relative(residual, 1.0 + abs(lhs), tol)
    return ReconstructionReport(float(residual), bool(passed), projected, distance)


@dataclass
class CrossFrameReport:
    """Outcome of the coupled-synthesis criterion T_Theta T_Lambda* = k*; see
    :func:`cross_frame_check` for its fields."""

    premise_ok: bool
    premise_residual: float
    bessel_lambda: float
    bessel_theta: float
    lambda_lower: float | None = None
    theta_lower: float | None = None
    lambda_certified: bool | None = None
    theta_certified: bool | None = None


def cross_frame_check(lambda_system: GFusionSystem, theta_system: GFusionSystem,
                      k: BoundedOperator,
                      tol: ToleranceProfile = DEFAULT_TOL) -> CrossFrameReport:
    """Certify two systems as frames for k and k* from their coupled synthesis.

    Premise: T_Theta T_Lambda* = k*, checked as ``premise_residual``
    ``= |T_Theta T_Lambda* - k*|`` within tolerance of |k| (``premise_ok``).
    Conclusion: with B1 = |S_Lambda| (``bessel_lambda``) and B2 = |S_Theta|
    (``bessel_theta``) the Bessel bounds, |k* f|^2 <= B2 <S_Lambda f, f>, so
    S_Lambda >= B2^-1 k k* and likewise S_Theta >= B1^-1 k* k.  When the
    premise holds, ``lambda_lower`` = 1/B2 and ``theta_lower`` = 1/B1, and
    ``lambda_certified`` / ``theta_certified`` are the PSD verdicts of those
    two inequalities; otherwise the four stay None.
    """
    _require_compatible(lambda_system, k, theta_system)
    if lambda_system.local_dims() != theta_system.local_dims():
        raise InputError("systems must share their local coordinate dimensions blockwise")
    s_lambda = lambda_system.frame_matrix
    s_theta = theta_system.frame_matrix
    b1 = operator_norm(s_lambda)
    b2 = operator_norm(s_theta)
    t_lambda, t_theta = lambda_system.synthesis_matrix, theta_system.synthesis_matrix
    premise_residual = operator_norm(t_theta @ adjoint(t_lambda) - adjoint(k.matrix))
    premise_ok = within_scale(premise_residual, k.norm, tol)
    report = CrossFrameReport(bool(premise_ok), float(premise_residual), float(b1), float(b2))
    if premise_ok:
        ksk = k.adjoint().times_adjoint
        report.lambda_lower = 1.0 / b2
        report.theta_lower = 1.0 / b1
        report.lambda_certified = psd_check(s_lambda - report.lambda_lower * k.times_adjoint, tol)
        report.theta_certified = psd_check(s_theta - report.theta_lower * ksk, tol)
    return report

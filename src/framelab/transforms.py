"""Pushforwards of frame systems along invertible maps, and target reduction.

Transforming a k-relative frame by an invertible u produces a frame for u k
over the moved subspaces u W_j; the certified bound pair (A, B |u|^2), with
(A, B) the optimal bounds of the input, is checked by the PSD sandwich
rather than trusted.  The unitary pushforward is the case u*u = I of the
invertible one.  ``reduce_operator`` answers when frame-ness relative to k
survives passing to a smaller operator u whose range factors through k.
"""
from __future__ import annotations

from dataclasses import dataclass

from .frame_ops import FrameBounds, FrameReport, optimal_bounds, verify_k_g_fusion
from .model import BoundedOperator, GFusionSystem, LocalOperator, WeightedSubspace
from .numerics import (
    DEFAULT_TOL,
    InputError,
    PreconditionError,
    ToleranceProfile,
    adjoint,
    douglas_factor,
    orthonormalize,
    psd_check,
)

__all__ = [
    "TransformedSystem",
    "transform_invertible",
    "transform_unitary",
    "ReduceOperatorReport",
    "reduce_operator",
]


@dataclass
class TransformedSystem:
    """A pushed-forward system plus its certified bounds for the new target."""

    system: GFusionSystem
    certified: FrameBounds
    target_operator: BoundedOperator
    report: FrameReport


def transform_invertible(system: GFusionSystem, k: BoundedOperator, u: BoundedOperator,
                         tol: ToleranceProfile = DEFAULT_TOL) -> TransformedSystem:
    """Push a k-relative frame forward along an invertible u.

    The image system is (u W_j, L_j pi_Wj u*, v_j); it is certified a frame
    for u k with bounds (A, B |u|^2), (A, B) the optimal bounds of the
    input.  Requires u invertible beyond the rank cutoff.
    """
    if u.dim != system.dim:
        raise InputError("transform operator has wrong dimension")
    if not u.is_invertible(tol):
        raise PreconditionError("transform operator is numerically singular")
    bounds = optimal_bounds(system, k, tol)
    u_adj = adjoint(u.matrix)
    moved = GFusionSystem(system.space, tuple(
        (WeightedSubspace(orthonormalize(u.matrix @ sub.basis, tol), sub.weight),
         LocalOperator(lp @ u_adj))
        for (sub, _), lp in zip(system.members, system.local_factors)))
    target = BoundedOperator(u.matrix @ k.matrix)
    certified = FrameBounds(bounds.lower, bounds.upper * u.norm**2)
    report = verify_k_g_fusion(moved, target, claimed=certified, tol=tol)
    return TransformedSystem(moved, certified, target, report)


def transform_unitary(system: GFusionSystem, k: BoundedOperator, u: BoundedOperator,
                      tol: ToleranceProfile = DEFAULT_TOL) -> TransformedSystem:
    """Push a k-relative frame forward along a unitary u.

    The paper's image system (u W_j, L_j u^-1, v_j) for (u^-1)* k = u k is
    the invertible pushforward: on u W_j, L_j u^-1 = L_j pi_Wj u*, so this is
    :func:`transform_invertible` once u*u = I holds within tolerance.
    """
    if u.dim != system.dim:
        raise InputError("transform operator has wrong dimension")
    if not u.is_unitary(tol):
        raise PreconditionError("transform operator is not unitary within tolerance")
    return transform_invertible(system, k, u, tol)


@dataclass
class ReduceOperatorReport:
    """Whether k-frame-ness transfers to a smaller target operator u; see
    :func:`reduce_operator` for its fields."""

    derivable: bool
    lambda_min: float | None
    certified_lower: float | None
    certified_ok: bool | None
    fallback_report: FrameReport | None


def reduce_operator(system: GFusionSystem, k: BoundedOperator, u: BoundedOperator,
                    tol: ToleranceProfile = DEFAULT_TOL) -> ReduceOperatorReport:
    """Pass a k-frame's lower bound on to an operator u with ran(u) in ran(k).

    Premise: the system is a k-frame with optimal bounds (A, B) (else
    :class:`NotAFrameError`), and ran(u) in ran(k), the Douglas verdict
    ``derivable``.  Conclusion: u = k X with |X| = lambda_min, so
    u u* <= lambda_min^2 k k* and S >= A k k* >= (A / lambda_min^2) u u*: the
    system is a u-frame.  When derivable, ``lambda_min`` and
    ``certified_lower`` = A / lambda_min^2 are filled in and ``certified_ok``
    is the PSD verdict of S - certified_lower u u* >= 0.  When not,
    ``fallback_report`` is a direct :func:`verify_k_g_fusion` against u, which
    tells "not derivable by factorization" from "not a u-frame".
    """
    if u.dim != system.dim:
        raise InputError("target operator has wrong dimension")
    bounds = optimal_bounds(system, k, tol)
    dg = douglas_factor(u.matrix, k.matrix, tol)
    if dg.included:
        lam = dg.lambda_min
        if lam == 0.0:
            raise InputError("target operator u is numerically zero")
        certified_lower = bounds.lower / lam**2
        certified_ok = psd_check(system.frame_matrix - certified_lower * u.times_adjoint, tol)
        return ReduceOperatorReport(True, float(lam), float(certified_lower),
                                    bool(certified_ok), None)
    fallback = verify_k_g_fusion(system, u, tol=tol)
    return ReduceOperatorReport(False, None, None, None, fallback)

"""Stability of frame systems under perturbation of the local operators.

Four hypothesis shapes are supported, each relating the perturbed family
(W_j, Theta_j, v_j) back to the base family through an inequality that is
quantified over index subsets I and probe vectors f:

* ``P1-sqrt-sum``    |D_I f| <= l1 |S_I f| + l2 |S'_I f| + g sqrt(q_I(f))
* ``P-variant-kstar``|D_I f| <= l1 |S_I f| + l2 |S'_I f| + g |k* f|
* ``C-p2-normsum``   |D_I f| <= R |k* f|
* ``T-sqsum``        sum_I v_j^2 |(L_j - Th_j) pi_j f|^2 <= R |k* f|^2

where D_I = sum_I v^2 (pi L* L pi - pi Th* Th pi), S_I and S'_I are the
partial frame operators of the base and perturbed families, and
q_I(f) = sum_I v^2 |L pi f|^2.  The first three are falsified by search,
never proved.  T-sqsum is also decided exactly: its terms are nonnegative, so the
full set dominates, the hypothesis is S_delta <= R k k* (S_delta the frame operator
of the gaps L_j - Th_j) and its worst probe the top eigenvector of S_delta - R k k*.
Every search ends at such a spectral witness (:func:`_witness`): the other modes take
the top eigenvector of D_I^2 less R^2 kk* or a Cauchy-Schwarz bound on the squared
right-hand side, at the worst subset and probe of the sweep, and test it everywhere.

The search runs in two stages.  The member stage (``_member_terms``) forms
``|k* f|`` and the weighted member terms once for the search's whole probe
set, and once for the witness.  It runs per group of members with equal
factor shapes and dtypes, not per member: the factors ``L_j P_j`` and
``Th_j P_j`` of a group and their adjoints are stacked once per search, and
a few stacked matvecs per group are scattered into the members' columns of
``(probes, members, dim)`` arrays and weighted by one broadcast multiply.
The subset stage (``_violations``) runs per block of consecutive probes on
slices of those arrays and returns lhs - rhs for each (probe, subset) pair.
Its vector subset sums are one stacked product each, stored dim-major,
``(p, dim, subsets)``; a real search squares them in place, and each norm is
one ``np.add.reduce`` over the dim axis
(:func:`~framelab.numerics.column_norms`).  Every entry keeps the bits of
the same inequality evaluated at its probe alone, so the verdict does not
depend on the blocking.  The float subset weights and the member stacks are
built once per search and only read; each block's sums and norms are new arrays.

In the two sqrt-sum modes every block after the first bounds each pair from
above before it forms the right-hand side (:func:`_bound_terms`): with |D_I f|
and t, sqrt(q_I(f)) or |k* f|, formed in full, Cauchy-Schwarz (``|s| >=
Re<s, h>`` at a unit h) gives

    lhs - rhs <= |D_I f| - max_h sum_I Re<l1 b_j + l2 p_j, h> - g t + slack

over two unit vectors h, the probe f and the direction of its whole family's
``sum_j (l1 b_j + l2 p_j)``, the slack a stated rounding bound (Higham,
ch. 3) on the subset sums of the member magnitudes ``|d_j| + l1 |b_j| +
l2 |p_j|`` and on ``g t``.  A pair whose bound is at most the worst gap
before its block and, until the search is falsified, within tolerance at
scale 1 (its own scale is at least 1) can change no field of the verdict:
the bound decides it, and no sample skips it.  Only the subsets that hold an
undecided pair form their two right-hand norms, at every probe of the block,
with the bits of the full sweep; a settled pair among them reads its own gap,
which is at most its bound and so changes nothing either.

In C-p2-normsum and T-sqsum every block after the first bounds each probe's whole
row instead (:func:`_row_bounds`), as ``U - rhs`` with U an upper bound on the row's
every computed lhs.  T-sqsum's terms are nonnegative, so U is the full sum plus a
rounding allowance; C-p2's ``|sum_I d_j|`` is at most the norm of the coordinate box
``M_k = max(sum_j d_jk^+, sum_j d_jk^-)`` (real and imaginary parts apart), plus an
allowance on ``sum_j |d_j|``.  A row whose bound passes the same rule as a pair's is
settled: it is counted as tested, and only the other rows of the block go through
the subset stage, as one gathered block whose rows keep their bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .frame_ops import (
    FrameBounds,
    FrameReport,
    _require_compatible,
    _require_shared_space,
    frame_operator,
    optimal_bounds,
    subset_masks,
    verify_k_g_fusion,
)
from .model import BoundedOperator, GFusionSystem, _read_only
from .numerics import (
    DEFAULT_TOL,
    InputError,
    InternalConsistencyError,
    PreconditionError,
    ToleranceProfile,
    adjoint,
    at_least,
    at_most,
    column_norms,
    operator_norm,
    psd_eig,
    real_scalar,
    rounding_bound,
    row_norms,
    row_sq_norms,
    unit_probes,
)

__all__ = [
    "PerturbationMode",
    "PerturbationParams",
    "HypothesisVerdict",
    "PaleyWienerReport",
    "paley_wiener_check",
    "perturb_hypothesis",
    "predicted_bounds",
    "variant_gamma_readings",
    "PerturbationReport",
    "verify_perturbation_theorem",
    "perturb_report",
]

RANDOM_PROBES = 200
# Entries of the (probes, dim, subsets) sums of one block of probes, so that a
# search's memory stays flat however many subsets it walks.  T-sqsum blocks are
# sized the same, so its (probes, subsets) sums and gaps stay as small.
PROBE_BLOCK_ENTRIES = 65_536


class PerturbationMode(Enum):
    """Hypothesis shapes, keyed by the tokens the CLI accepts."""

    SQRT_SUM = "P1-sqrt-sum"
    ADJOINT_TERM = "P-variant-kstar"
    AGGREGATE_NORM = "C-p2-normsum"
    SQUARE_SUM = "T-sqsum"


def _constant(value, name: str, below: float) -> float:
    """``value`` as a float in [0, below), else InputError: the one gate of every
    perturbation constant, lambda1 and lambda2 below 1, gamma and R finite."""
    value = real_scalar(value, f"{name} must be a real scalar, got {value!r}")
    if not 0.0 <= value < below:  # NaN fails this too
        raise InputError(f"{name} must lie in [0, {below:g}), got {value!r}")
    return value


@dataclass(frozen=True)
class PerturbationParams:
    """Constants of a perturbation hypothesis.

    All four are real scalars: lambda1 and lambda2 in [0, 1), gamma and R
    nonnegative.  The bound-dependent admissibility (involving the base
    lower bound A) is checked by :func:`predicted_bounds`, not here.
    """

    lambda1: float = 0.0
    lambda2: float = 0.0
    gamma: float = 0.0
    R: float = 0.0
    mode: PerturbationMode = PerturbationMode.SQRT_SUM

    def __post_init__(self):
        for name, below in (("lambda1", 1.0), ("lambda2", 1.0), ("gamma", math.inf),
                            ("R", math.inf)):
            object.__setattr__(self, name, _constant(getattr(self, name), name, below))
        if not isinstance(self.mode, PerturbationMode):
            try:
                object.__setattr__(self, "mode", PerturbationMode(self.mode))
            except ValueError as exc:
                tokens = ", ".join(m.value for m in PerturbationMode)
                raise InputError(
                    f"unknown perturbation mode {self.mode!r}; expected one of {tokens}"
                ) from exc


@dataclass
class HypothesisVerdict:
    """Outcome of a falsification search over (subset, probe) pairs.

    ``falsified`` means some tested pair violated the inequality beyond tolerance, or
    for T-sqsum that its exact test failed; otherwise it is evidence, not proof.  The
    tested pairs are the sweep's and its witness probe's (:func:`perturb_hypothesis`).
    ``worst_violation`` is the signed maximum of lhs - rhs over them, for T-sqsum also
    lambda_max(S_delta - R kk*); ``probes_tested`` counts the sweep's probes and the witness.
    """

    falsified: bool
    worst_violation: float
    subsets_tested: int
    probes_tested: int
    worst_subset: tuple = ()
    worst_probe: np.ndarray | None = None

    def __post_init__(self):
        if self.falsified and not self.worst_violation > 0.0:
            raise InternalConsistencyError(
                "falsified verdict requires a positive worst violation")


@dataclass
class PaleyWienerReport:
    """Invertibility certificate for an operator close to the identity."""

    certified: bool
    defect_norm: float
    sigma_min: float
    sigma_max: float
    predicted_sigma_lower: float
    predicted_sigma_upper: float
    inverse_lower: float
    inverse_upper: float
    conclusion_ok: bool | None


def paley_wiener_check(u, lambda1: float, lambda2: float,
                       tol: ToleranceProfile = DEFAULT_TOL) -> PaleyWienerReport:
    """Certify invertibility of u from closeness to the identity.

    The sufficient condition is |I - u| <= l1 + l2 sigma_min(u), which gives
    the pointwise bound |x - u x| <= l1 |x| + l2 |u x|.  When certified, the
    singular values must satisfy
    (1 - l1)/(1 + l2) <= sigma(u) <= (1 + l1)/(1 - l2) and the inverse the
    reciprocal bounds; a certified case violating them raises
    :class:`InternalConsistencyError`.  An uncertified case is inconclusive,
    not a failure.
    """
    lambda1, lambda2 = _constant(lambda1, "lambda1", 1.0), _constant(lambda2, "lambda2", 1.0)
    op = u if isinstance(u, BoundedOperator) else BoundedOperator(u)
    n = op.dim
    defect = operator_norm(op.matrix - np.eye(n, dtype=op.matrix.dtype))
    sigma_min = float(op.singular_values[-1])
    sigma_max = op.norm
    certified = at_most(defect, lambda1 + lambda2 * sigma_min, sigma_max, tol)
    lower = (1.0 - lambda1) / (1.0 + lambda2)
    upper = (1.0 + lambda1) / (1.0 - lambda2)
    report = PaleyWienerReport(
        certified=bool(certified), defect_norm=float(defect), sigma_min=sigma_min,
        sigma_max=sigma_max, predicted_sigma_lower=float(lower),
        predicted_sigma_upper=float(upper), inverse_lower=1.0 / upper,
        inverse_upper=1.0 / lower, conclusion_ok=None)
    if certified:
        # the inverse bounds are read only where sigma_min clears the tolerance
        report.conclusion_ok = bool(
            at_least(sigma_min, lower, sigma_max, tol) and at_most(sigma_max, upper, sigma_max, tol)
            and not at_most(sigma_min, 0.0, sigma_max, tol)
            and at_least(1.0 / sigma_max, report.inverse_lower, sigma_max, tol)
            and at_most(1.0 / sigma_min, report.inverse_upper, sigma_max, tol))
        if not report.conclusion_ok:
            raise InternalConsistencyError(
                f"certified case breaks the singular value bounds: "
                f"sigma in [{sigma_min:g}, {sigma_max:g}], "
                f"predicted [{lower:g}, {upper:g}]")
    return report


def _on_base(base: GFusionSystem, theta) -> GFusionSystem:
    """The perturbed local operators over the base subspaces and weights.

    ``theta`` is a system over the base's space with as many members (only
    its local operators are read) or a plain sequence of local
    operators/matrices.  A system already built over the base's own
    subspaces is returned as it is, so its cached factors are reused.
    """
    if isinstance(theta, GFusionSystem):
        _require_shared_space(base, theta)
        if theta.size != base.size:
            raise InputError("perturbed system does not match the base shape")
        if all(sub is base_sub for (sub, _), (base_sub, _) in zip(theta.members, base.members)):
            return theta
        theta = [op for _, op in theta.members]
    return base.with_local_operators(theta)


def _member_data(base: GFusionSystem, family: GFusionSystem):
    """Per-member weights and factors the hypotheses are assembled from."""
    return [(sub.weight**2, lp, tp) for (sub, _), lp, tp
            in zip(base.members, base.local_factors, family.local_factors)]


class _Workspace:
    """The read-only member stacks and subset weights of one search.

    ``weights`` holds the subset masks as floats, ``weights_t`` a C-contiguous
    copy of its transpose, ``w2`` the squared member weights as a
    ``(members, 1)`` column, and ``groups`` the members grouped by factor
    shape and dtypes, each as ``(columns, L P, (L P)*, Th P, (Th P)*)`` with
    ``(g, r, n)`` factor stacks and ``(g, n, r)`` adjoint stacks.  An adjoint
    stack is ``np.conj(stack).transpose(0, 2, 1)``, so each slice has the
    F-order layout of ``adjoint(lp)``, and each matmul slice keeps the shape
    and strides, and so the bits, of the one-member product.  Members are not
    padded to one shape: that would change the inner length of the products,
    and with it the summation inside them.
    """

    def __init__(self, masks, data):
        self.weights = _read_only(masks.astype(float))
        self.weights_t = _read_only(np.ascontiguousarray(masks.T, dtype=float))
        self.w2 = _read_only(np.array([[w2] for w2, _, _ in data], dtype=float))
        shared = {}
        for j, (_, lp, tp) in enumerate(data):
            shared.setdefault((lp.shape, tp.shape, lp.dtype, tp.dtype), []).append(j)
        groups = []
        for columns in shared.values():
            lps = np.stack([data[j][1] for j in columns])
            tps = np.stack([data[j][2] for j in columns])
            groups.append(tuple(_read_only(a) for a in (
                np.array(columns), lps, np.conj(lps).transpose(0, 2, 1),
                tps, np.conj(tps).transpose(0, 2, 1))))
        self.groups = tuple(groups)


def _gap_and_scale(lhs, rhs):
    """lhs - rhs and 1 + lhs + rhs, as new arrays."""
    scale = np.add(1.0, lhs)
    scale += rhs
    return lhs - rhs, scale


def _sum_norms(vectors, weights):
    """The norms of the subset sums ``vectors^T @ weights`` of ``(p, members, n)`` member
    terms, one column per subset; real sums are squared in place."""
    sums = np.matmul(vectors.transpose(0, 2, 1), weights)
    return column_norms(sums, squares=None if np.iscomplexobj(sums) else sums)


def _member_terms(work: _Workspace, k_mat, probes, params: PerturbationParams) -> tuple:
    """The member stage of a ``(p, n)`` probe set: ``|k* f|`` and the mode's member terms.

    Each array has the probes first: ``(p, 1)`` norms, then T-sqsum's ``v^2 |(L - Th) pi f|^2``
    or the ``(p, members, dim)`` terms ``v^2 pi (L* L - Th* Th) pi f``, ``v^2 pi L* L pi f``
    and ``v^2 pi Th* Th pi f`` (C-p2-normsum the first alone), then P1-sqrt-sum's ``v^2 |L pi
    f|^2``.  A few stacked matvecs per shape group, so row i has the bits of probe i alone.
    """
    mode, stacked = params.mode, probes[:, None, :, None]
    kf_norm = row_norms((adjoint(k_mat) @ probes[:, :, None])[..., 0])[:, None]
    scalars = np.empty((probes.shape[0], len(work.w2), 1))
    base, pert = np.empty((2,) + scalars.shape[:2] + probes.shape[1:], probes.dtype)
    for columns, lps, lph, tps, tph in work.groups:
        images = lps @ stacked
        if mode is PerturbationMode.SQUARE_SUM:
            scalars[:, columns, 0] = row_sq_norms((images - tps @ stacked)[..., 0])
            continue
        base[:, columns] = (lph @ images)[..., 0]
        pert[:, columns] = (tph @ (tps @ stacked))[..., 0]
        if mode is PerturbationMode.SQRT_SUM:
            scalars[:, columns, 0] = row_sq_norms(images[..., 0])
    count = {PerturbationMode.AGGREGATE_NORM: 1, PerturbationMode.ADJOINT_TERM: 3}.get(mode, 4)
    terms = ((scalars,) if mode is PerturbationMode.SQUARE_SUM
             else (base - pert, base, pert, scalars))
    return (kf_norm, *(np.multiply(a, work.w2, out=a) for a in terms[:count]))


def _real_norms(real):
    """The norms along the last axis of a real view."""
    return np.sqrt(np.einsum("...i,...i", real, real))


def _bound_terms(members, probes, params: PerturbationParams):
    """The bound stage's ``(p, 2, members)`` terms of a sqrt-sum mode at ``probes``, from
    their rows ``members`` of :func:`_member_terms`.

    With the gap, base and perturbed member terms ``d_j``, ``b_j`` and ``p_j`` at probe f,
    the terms are, at the two unit vectors h = f and h = the direction of the whole
    family's ``sum_j (l1 b_j + l2 p_j)`` (f where that sum is 0),

        e_j(h) = Re<l1 b_j + l2 p_j, h>
                 - rounding_bound(K, |d_j| + l1 |b_j| + l2 |p_j| + tau_j),

    where ``tau_j`` is ``gamma sqrt(v^2 |L pi f|^2)`` (P1-sqrt-sum) or ``gamma |k* f|``
    (P-variant-kstar), so that ``lhs - gamma t - max_h sum_I e_j(h)`` bounds each computed
    gap ``lhs - rhs`` from above.  For a unit h, Cauchy-Schwarz gives ``|s| >= Re<s, h>``
    for the subset sum ``s`` of any computed vectors, so ``rhs >= sum_I Re<l1 b_j + l2
    p_j, h> + gamma t`` up to rounding: h = f is tight where f is near an eigenvector of
    S_I, the other h where ``S_I f`` leans toward the whole family's.  Counting u = 2**-53
    per rounding, and n = 2 dim real components, that rounding is below ``(2 members + 3
    n + 15) u`` times ``|D_I f| + l1 sum_I |b_j| + l2 sum_I |p_j| + gamma t``: a subset
    sum rounds at most ``members`` times per term, a norm or dot product n + 2 times,
    each h's norm lies within n + 4 roundings of 1, and the two sides, the gap and its
    bound take 15 more.  ``K = 4 (members + 3 dim + 8)`` is twice that count.  Each of
    the three subset magnitudes is at most its sum of member magnitudes, ``gamma t`` at
    most the sum of the members' ``tau_j`` (a square root is subadditive), and every
    subset holds a member, so the allowances in the terms cover the rounding, and the
    constant of ``rounding_bound`` the error of underflow.  Inner products and norms here
    are sums over the real views of the vectors.
    """
    lam1, lam2 = params.lambda1, params.lambda2
    diff, base, pert = (np.ascontiguousarray(a).view(np.float64) for a in members[1:4])
    mixed = lam1 * base + lam2 * pert
    whole = mixed.sum(axis=1)
    length = _real_norms(whole)[:, None]
    flat = np.ascontiguousarray(probes).view(np.float64)
    toward = np.divide(whole, length, out=flat.copy(), where=length > 0.0)
    tau = (np.sqrt(members[4][..., 0]) if params.mode is PerturbationMode.SQRT_SUM
           else members[0])
    magnitude = _real_norms(diff) + lam1 * _real_norms(base) + lam2 * _real_norms(pert)
    magnitude += params.gamma * tau
    terms = mixed @ np.stack((flat, toward), axis=2)
    count, dim = members[1].shape[1:]
    terms -= rounding_bound(4 * (count + 3 * dim + 8), magnitude)[..., None]
    return np.ascontiguousarray(terms.transpose(0, 2, 1))


def _row_bounds(members, params: PerturbationParams):
    """An upper bound on every computed gap of each probe's row, ``(p,)``, from the rows
    ``members`` of :func:`_member_terms` of a T-sqsum or C-p2-normsum search.

    The bound is ``U - rhs``, with rhs formed as :func:`_violations` forms it: rounding
    is monotone, so ``fl(U - rhs)`` is at least ``fl(lhs - rhs)`` wherever the computed
    lhs is at most U.  With u = 2**-53 per rounding, m members and n = 2 dim real
    coordinates:

    * T-sqsum.  Every term ``s_j`` is at least 0, so every subset's sum is at most the
      full sum.  A computed subset sum is within ``(1 + gamma_m)`` of the exact one, the
      computed full sum ``S`` at least ``(1 - gamma_m)`` times the exact one, so every
      computed subset sum is below ``S`` plus ``(2 m + 1) u S``, the last u for forming
      ``U = S + rounding_bound(K, S)`` itself.
    * C-p2-normsum.  Per real coordinate k (Re and Im apart), ``|sum_I d_jk|`` is at most
      ``M_k = max(sum_j d_jk^+, sum_j d_jk^-)``, so ``|sum_I d_j|`` is at most ``|M|``.
      A computed subset sum is off by ``gamma_m sum_j |d_jk|`` per coordinate, whose norm
      is at most ``s = sum_j |d_j|``; a computed norm, of the subset sum or of M, is within
      ``gamma_{n+2}``, and every M_k within ``gamma_m``; and ``|M| <= s``.  So every
      computed lhs is below ``fl(|M|)`` plus ``(2 m + 2 n + 6) u s``, forming U included,
      and ``U = |M| + rounding_bound(K, s)``.

    ``K`` is twice the count: ``4 (m + 1)``, and ``4 (m + 2 dim + 3)``.  Its second-order
    terms and the roundings of the allowance itself are far below the other half, and the
    constant of :func:`~framelab.numerics.rounding_bound` covers gradual underflow.  A
    NaN or infinite U gives a NaN bound, which settles nothing.
    """
    kf_norm, terms = members[0][:, 0], members[1]
    count, dim = terms.shape[1:]
    if params.mode is PerturbationMode.SQUARE_SUM:
        total = terms[..., 0].sum(axis=1)
        upper = total + rounding_bound(4 * (count + 1), total)
        rhs = params.R * np.float_power(kf_norm, 2.0)
    else:
        real = np.ascontiguousarray(terms).view(np.float64)
        box = np.maximum(np.maximum(real, 0.0).sum(axis=1), -np.minimum(real, 0.0).sum(axis=1))
        upper = _real_norms(box)
        upper += rounding_bound(4 * (count + 2 * dim + 3), _real_norms(real).sum(axis=1))
        rhs = params.R * kf_norm
    upper[~np.isfinite(upper)] = np.nan
    return upper - rhs


def _violations(work: _Workspace, k_mat, probes, params: PerturbationParams,
                members: tuple | None = None, bound: tuple | None = None):
    """lhs - rhs and scale for every (probe, subset) pair of a probe block.

    The subset stage: ``work`` holds the search's member stacks and subset
    weights, ``probes`` is a ``(p, n)`` block and ``members`` its rows of
    :func:`_member_terms` (formed here when not given); both results are new
    ``(p, subsets)`` arrays.  Each entry carries the bits of the same
    inequality evaluated member by member at its probe alone.  ``bound``,
    read in the two sqrt-sum modes, is the block's rows of
    :func:`_bound_terms` and a function that maps the pairs' ``(p, subsets)``
    upper bounds ``lhs - gamma t - max_h sum_I e_j(h)`` to the mask of the
    pairs they leave undecided.  Only the subsets that hold an undecided pair
    form their two right-hand norms, at every probe of the block, and keep
    the full block's bits: each column of a product and of ``column_norms``
    is computed alone, and a lone column is repeated, as ``column_norms``
    sums a width-1 array in another order.  Every other subset reads gap
    -inf and scale 1 + lhs.
    """
    kf_norm, *terms = members or _member_terms(work, k_mat, probes, params)
    lam1, lam2, gamma, r = params.lambda1, params.lambda2, params.gamma, params.R
    p = probes.shape[0]

    def scalar_sums(scalars):
        """(p, subsets) subset sums of (p, members, 1) scalar member terms."""
        return np.matmul(work.weights, scalars)[..., 0]

    if params.mode is PerturbationMode.SQUARE_SUM:
        return _gap_and_scale(scalar_sums(terms[0]), r * np.float_power(kf_norm, 2.0))
    lhs = _sum_norms(terms[0], work.weights_t)
    if params.mode is PerturbationMode.AGGREGATE_NORM:
        return _gap_and_scale(lhs, r * kf_norm)
    if params.mode is PerturbationMode.SQRT_SUM:
        t_term = scalar_sums(terms[3])
        np.sqrt(t_term, out=t_term)
        t_term *= gamma
    else:
        t_term = gamma * kf_norm
    weights = work.weights_t
    if bound is not None:
        bound_rows, undecided = bound
        sums = (bound_rows.reshape(2 * p, -1) @ weights).reshape(p, 2, -1)
        bounds = np.maximum(sums[:, 0], sums[:, 1])
        np.subtract(lhs, bounds, out=bounds)
        bounds -= t_term
        columns = np.flatnonzero(undecided(bounds).any(axis=0))
        gaps, scales = np.full(lhs.shape, -np.inf), np.add(1.0, lhs)
        if not columns.size:
            return gaps, scales
        weights = weights[:, np.repeat(columns, 2) if columns.size == 1 else columns]
        lhs = lhs[:, columns]
        t_term = t_term[:, columns] if t_term.shape[1] > 1 else t_term
    rhs = _sum_norms(terms[1], weights)[:, :lhs.shape[1]]
    rhs *= lam1
    term = _sum_norms(terms[2], weights)[:, :lhs.shape[1]]
    term *= lam2
    rhs += term
    rhs += t_term
    if bound is None:
        return _gap_and_scale(lhs, rhs)
    gaps[:, columns], scales[:, columns] = _gap_and_scale(lhs, rhs)
    return gaps, scales


def _witness(base: GFusionSystem, family: GFusionSystem, k: BoundedOperator,
             params: PerturbationParams, subset, probe=None, excess=0.0) -> np.ndarray:
    """The Hermitian M whose top eigenvector is the mode's witness at ``subset``.

    T-sqsum's M is S_delta - R kk*, whose eigenvalues at the full set are its exact gaps;
    C-p2-normsum's is D_I^2 - R^2 kk*.  The sqrt-sum modes' is D_I^2 - (sum v_i) sum T_i /
    v_i over the squared right-hand terms T_i: l1^2 S_I^2, l2^2 S'_I^2, g^2 X (X = S_I or
    kk*) and, if the sweep's worst gap ``excess`` is positive, excess^2.  By Cauchy-Schwarz
    a positive ``<M f, f>`` is a gap above ``excess`` at (I, f) for any positive weights;
    v_i = <T_i f, f>^(1/2) at ``probe``, the sweep's worst, makes M tight there: at I, its top
    eigenvector's gap (or, below 0, |D_I f|^2 - rhs^2) is at least that probe's.
    A zero T_i is left out, and all weigh 1 if another is 0 at ``probe``.  These three Ms
    are formed from S_I and S'_I over one common scale, the largest of their entries and
    of the right-hand operand (R |k|, g |k| or g sqrt|S_I|), so M stays finite wherever the
    hypothesis's two sides do, with the same eigenvectors.
    """
    mode, gamma = params.mode, params.gamma
    if mode is PerturbationMode.SQUARE_SUM:
        deltas = [op.matrix - th.matrix for (_, op), (_, th) in zip(base.members, family.members)]
        return (frame_operator(base.with_local_operators(deltas), index_set=subset)
                - params.R * k.times_adjoint)
    s_base, s_pert = (frame_operator(system, index_set=subset) for system in (base, family))
    size = np.abs(s_base).max()
    reach = params.R if mode is PerturbationMode.AGGREGATE_NORM else gamma
    operand = (gamma * math.sqrt(size) if mode is PerturbationMode.SQRT_SUM
               else reach * np.abs(k.matrix).max())
    scale = float(max(size, np.abs(s_pert).max(), operand)) or 1.0
    s_base, s_pert = s_base / scale, s_pert / scale
    gap = s_base - s_pert
    if mode is PerturbationMode.SQRT_SUM:
        rhs = gamma * (gamma / scale) * s_base
    else:
        rhs = k.matrix * (reach / scale)
        rhs = rhs @ adjoint(rhs)
    if mode is PerturbationMode.AGGREGATE_NORM:
        return gap @ gap - rhs
    excess = max(excess, 0.0) / scale
    terms = [t for t in (params.lambda1**2 * (s_base @ s_base), params.lambda2**2
                         * (s_pert @ s_pert), rhs, excess**2 * np.eye(base.dim)) if t.any()]
    weights = [math.sqrt(max(float(np.vdot(probe, t @ probe).real), 0.0)) for t in terms]
    if not all(0.0 < v < math.inf for v in weights):
        weights = [1.0] * len(terms)
    return gap @ gap - sum(weights) * sum(t / v for t, v in zip(terms, weights))


# an overflow raises InputError below; numpy's own warning would only add noise
@np.errstate(over="ignore", invalid="ignore")
def perturb_hypothesis(base: GFusionSystem, theta, k: BoundedOperator,
                       params: PerturbationParams,
                       tol: ToleranceProfile = DEFAULT_TOL) -> HypothesisVerdict:
    """Search for a (subset, probe) pair violating the mode's inequality.

    Subsets are exhaustive up to 12 members, otherwise a deterministic sample of 512
    including the full set, singletons, and their complements.  Probes are the standard
    basis and 200 seeded unit vectors, swept through the module's two stages in blocks of
    consecutive probes, each sized so that a (probes, dim, subsets) array holds about
    ``PROBE_BLOCK_ENTRIES`` entries, and folded in probe order; ties go to the earliest
    probe; a pair whose gap fails ``at_most`` falsifies.  Each block after the first is
    bounded first, per pair (:func:`_bound_terms`) or per row (:func:`_row_bounds`), and a
    bound settles only what can change no field of the verdict.  Every search then tests
    one more probe over every subset, the witness: the top eigenvector of :func:`_witness`'s
    M, at the full set for T-sqsum and at the sweep's worst subset and probe for the other
    modes.  T-sqsum also falsifies when ``psd_check(R kk* - S_delta)`` fails, and reports at
    least lambda_max(S_delta - R kk*); the other modes' not-falsified verdict is evidence.
    A NaN or +inf gap, or a non-finite scale, which finite inputs give only by overflow,
    raises InputError; a subset a bound settles at every probe of a block reads gap -inf.
    """
    family = _on_base(base, theta)
    _require_compatible(base, k)
    data = _member_data(base, family)
    k_mat = k.matrix
    masks = subset_masks(base.size)
    n = base.dim
    probes = unit_probes(n, RANDOM_PROBES, complex_field=base.space.field == "complex",
                         seed=0xFA15)
    block = max(1, PROBE_BLOCK_ENTRIES // (masks.shape[0] * n))
    work = _Workspace(masks, data)
    members = _member_terms(work, k_mat, probes, params)
    exact = params.mode is PerturbationMode.SQUARE_SUM
    if exact:  # the exact test of S_delta <= R kk*; once it fails, no pair need be tested
        holds, w, v = psd_eig(-_witness(base, family, k, params, range(base.size)), tol)
    worst, worst_subset, worst_probe = -math.inf, (), None
    falsified = exact and not holds
    probes_tested = 0
    # the bound stage: every block but the first, which has no worst gap to compare with;
    # the sqrt-sum modes bound each pair, the other two each probe's row
    bounded = params.mode in (PerturbationMode.SQRT_SUM, PerturbationMode.ADJOINT_TERM)
    later = [a[block:] for a in members]
    if bounded:
        bound_terms = _bound_terms(later, probes[block:], params)
    else:
        row_bounds = _row_bounds(later, params)

    def undecided(bounds):
        """The pairs or rows whose gap bound could raise the worst gap or, until the
        search is falsified, falsify it: a pair's own scale is at least 1.  A NaN
        bound decides nothing."""
        decided = bounds <= worst
        # below a worst gap that is within tolerance at scale 1, every bound is too
        if not (falsified or at_most(worst, 0.0, 1.0, tol)):
            decided &= at_most(bounds, 0.0, 1.0, tol)
        return np.logical_not(decided, out=decided)

    def consider(fs, rows=None, bound=None):
        """Fold a block of probes and its member-stage rows in."""
        nonlocal worst, worst_subset, worst_probe, falsified, probes_tested
        gaps, scales = _violations(work, k_mat, fs, params, rows, bound)
        best = np.argmax(gaps, axis=1)  # each row's worst gap, or its first NaN
        row_worst = gaps[np.arange(best.size), best]
        # finite inputs give a NaN or +inf gap, or a non-finite scale, only by overflow;
        # a settled pair's gap is -inf
        if not (row_worst.max() < math.inf and scales.max() < math.inf):
            raise InputError("the perturbation search overflowed: a gap or its scale is not "
                             "finite; rescale the systems and constants")
        falsified = falsified or not at_most(gaps, 0.0, scales, tol).all()
        for f, gap, row in zip(fs, row_worst.tolist(), best):
            probes_tested += 1
            # ties go to the earliest probe: noise-level gains never displace it
            if worst_probe is None or gap > worst + 1e-12 * max(1.0, abs(worst)):
                worst = gap
                worst_subset = tuple(int(j) for j in np.flatnonzero(masks[row]))
                worst_probe = np.array(f)

    for start in range(0, probes.shape[0], block):
        rows = slice(start, start + block)
        bound = None
        if start and worst > -math.inf:
            if bounded:
                bound = (bound_terms[start - block:start], undecided)
            else:  # a settled row is tested: its bound decides it
                open_rows = undecided(row_bounds[start - block:start])
                rows = start + np.flatnonzero(open_rows)
                probes_tested += open_rows.size - rows.size
                if not rows.size:
                    continue
        consider(probes[rows], [a[rows] for a in members], bound)

    # the witness: the top eigenvector of M, at the full set (T-sqsum) or the worst subset
    if not exact:
        _, w, v = psd_eig(-_witness(base, family, k, params, worst_subset, worst_probe, worst), tol)
    consider(v[:, :1].T)
    if exact and -w[0] > worst:  # the exact supremum, where the kernel's rounding read less
        worst, worst_subset, worst_probe = -float(w[0]), tuple(range(base.size)), v[:, 0]

    return HypothesisVerdict(
        falsified=bool(falsified), worst_violation=float(worst), subsets_tested=int(masks.shape[0]),
        probes_tested=probes_tested, worst_subset=worst_subset, worst_probe=worst_probe)


def _sqrt_sum_reading(params: PerturbationParams, gamma_eff: float, lower: float,
                      upper: float) -> tuple:
    """A sqrt-sum reading with ``gamma_eff`` in place of gamma: its admissibility
    value max(lambda1 + gamma_eff/sqrt(A), lambda2), which must stay below 1,
    and its (lower, upper) bounds."""
    lam1, lam2 = params.lambda1, params.lambda2
    reach = lam1 + gamma_eff / math.sqrt(lower)
    return max(reach, lam2), (lower * (1.0 - reach) / (1.0 + lam2),
                              upper * (1.0 + lam1 + gamma_eff / math.sqrt(upper)) / (1.0 - lam2))


def predicted_bounds(params: PerturbationParams, lower: float, upper: float,
                     k_norm: float) -> FrameBounds:
    """The perturbed-system bounds each hypothesis shape promises.

    Formulas are evaluated literally; for ``P-variant-kstar`` the gamma term
    of the bounds scales with |k| while the admissibility gate divides gamma
    by |k|, the two readings :func:`variant_gamma_readings` reports.
    Inadmissible parameters raise InputError.
    """
    if lower <= 0.0 or upper <= 0.0:
        raise InputError("base bounds must be positive")
    r, mode = params.R, params.mode
    if mode in (PerturbationMode.AGGREGATE_NORM, PerturbationMode.SQUARE_SUM):
        # R = 0 is the zero-perturbation fixed point; only R >= A is rejected.
        if r >= lower:
            raise InputError(
                f"inadmissible parameters: R = {r:g} must stay below the "
                f"lower bound A = {lower:g}")
        if mode is PerturbationMode.AGGREGATE_NORM:
            return FrameBounds(float(lower - r), float(min(upper + r * math.sqrt(upper / lower),
                                                           r * k_norm + math.sqrt(upper))))
        return FrameBounds(float((math.sqrt(lower) - math.sqrt(r))**2),
                           float((k_norm * math.sqrt(r) + math.sqrt(upper))**2))
    if mode is PerturbationMode.SQRT_SUM:
        gate, (new_lower, new_upper) = _sqrt_sum_reading(params, params.gamma, lower, upper)
        term = "gamma/sqrt(A)"
    else:
        if k_norm <= 0.0:
            raise InputError("k must be nonzero for this mode")
        gate, _ = _sqrt_sum_reading(params, params.gamma / k_norm, lower, upper)
        _, (new_lower, new_upper) = _sqrt_sum_reading(params, params.gamma * k_norm,
                                                      lower, upper)
        term = "gamma/(sqrt(A)|k|)"
    if gate >= 1.0:
        raise InputError(f"inadmissible parameters: max(lambda1 + {term}, lambda2) "
                         f"= {gate:g} must stay below 1")
    # only P-variant-kstar reaches this: its bounds are the gamma-times-|k| reading
    if new_lower < 0.0:
        raise InputError(
            "parameters pass the printed admissibility condition but the "
            f"lower-bound formula is negative ({new_lower:g}); the two "
            "gamma readings of this mode disagree here")
    return FrameBounds(float(new_lower), float(new_upper))


def variant_gamma_readings(params: PerturbationParams, lower: float, upper: float,
                           k_norm: float) -> dict:
    """Both gamma readings of the |k*f| hypothesis shape.

    The stated bound scales gamma by |k| while the stated admissibility
    condition divides by it; the two agree only when |k| = 1.  Each reading
    reports its own admissibility and bounds so measured bounds can say which
    one the perturbed system actually obeys.
    """
    if params.mode is not PerturbationMode.ADJOINT_TERM:
        raise InputError("gamma readings only apply to the P-variant-kstar mode")
    if lower <= 0.0 or k_norm <= 0.0:
        raise InputError("base lower bound and |k| must be positive")
    gamma = params.gamma
    readings = {}
    for name, effective in (("gamma-times-knorm", gamma * k_norm),
                            ("gamma-over-knorm", gamma / k_norm)):
        gate, bounds = _sqrt_sum_reading(params, effective, lower, upper)
        admissible = gate < 1.0
        entry = {"admissible": bool(admissible), "lower": None, "upper": None}
        if admissible:
            entry["lower"], entry["upper"] = bounds
        readings[name] = entry
    return readings


@dataclass
class PerturbationReport:
    """Hypothesis verdict, perturbed-frame verification, and bound containment.

    The fields from ``base_bounds`` on are None when the hypothesis was
    falsified or the check met an internal inconsistency (``error``).  It
    passes unless it holds an error or a perturbed family that is not a frame.
    """

    params: PerturbationParams
    verdict: HypothesisVerdict
    base_bounds: FrameBounds | None = None
    theta_report: FrameReport | None = None
    predicted: FrameBounds | None = None
    theta_bounds: FrameBounds | None = None
    lower_contained: bool | None = None
    upper_contained: bool | None = None
    hypothesis_certified: bool | None = None
    erratum_log: list = field(default_factory=list)
    gamma_readings: dict | None = None
    error: str | None = None

    @property
    def passed(self) -> bool:
        return self.error is None and (self.theta_report is None or self.theta_report.is_frame)


def verify_perturbation_theorem(base: GFusionSystem, theta, k: BoundedOperator,
                                params: PerturbationParams,
                                tol: ToleranceProfile = DEFAULT_TOL) -> PerturbationReport:
    """Check a perturbation theorem's conclusion against measured bounds.

    This is :func:`perturb_report`, which verifies the perturbed family --
    theta's local operators over the base subspaces and weights -- as a frame
    for k and compares its optimal bounds with :func:`predicted_bounds`, with
    two outcomes raised: a falsified hypothesis as :class:`PreconditionError`,
    and the :class:`InternalConsistencyError` the report records when a
    spectrally certified square-sum hypothesis meets a containment failure.
    Every other failure is recorded in ``erratum_log``, because the constants
    in those conclusions are not independently established.
    """
    report = perturb_report(base, theta, k, params, tol=tol)
    if report.verdict.falsified:
        raise PreconditionError(
            f"hypothesis falsified with worst violation {report.verdict.worst_violation:g}; "
            "the theorem's conclusion is not in play")
    if report.error is not None:
        raise InternalConsistencyError(report.error)
    return report


def _conclusion(base: GFusionSystem, family: GFusionSystem, k: BoundedOperator,
                params: PerturbationParams, verdict: HypothesisVerdict,
                tol: ToleranceProfile) -> PerturbationReport:
    """The theorem's conclusion on ``family``, whose hypothesis ``verdict`` kept."""
    base_bounds = optimal_bounds(base, k, tol)
    theta_report = verify_k_g_fusion(family, k, tol=tol)
    report = PerturbationReport(params, verdict, base_bounds, theta_report)
    if params.mode is PerturbationMode.SQUARE_SUM:
        report.hypothesis_certified = True  # the search's exact test held
    if params.mode is PerturbationMode.ADJOINT_TERM:
        report.gamma_readings = variant_gamma_readings(
            params, base_bounds.lower, base_bounds.upper, k.norm)
    try:
        report.predicted = predicted_bounds(params, base_bounds.lower,
                                            base_bounds.upper, k.norm)
    except InputError as exc:
        report.erratum_log.append({"kind": "inadmissible-parameters",
                                   "mode": params.mode.value, "detail": str(exc)})
        return report
    if not theta_report.is_frame:
        record = {"kind": "perturbed-family-not-a-frame", "mode": params.mode.value,
                  "predicted_lower": report.predicted.lower,
                  "detail": "hypothesis not falsified yet the perturbed family "
                            "fails frame verification"}
        if report.hypothesis_certified:
            raise InternalConsistencyError(record["detail"])
        report.erratum_log.append(record)
        return report
    measured = report.theta_bounds = optimal_bounds(family, k, tol)
    scale = max(report.predicted.upper, measured.upper)
    report.lower_contained = bool(at_most(report.predicted.lower, measured.lower, scale, tol))
    report.upper_contained = bool(at_most(measured.upper, report.predicted.upper, scale, tol))
    if not (report.lower_contained and report.upper_contained):
        record = {"kind": "bound-containment-failure", "mode": params.mode.value,
                  "predicted": [report.predicted.lower, report.predicted.upper],
                  "measured": [report.theta_bounds.lower, report.theta_bounds.upper],
                  "lower_contained": report.lower_contained,
                  "upper_contained": report.upper_contained}
        if report.hypothesis_certified:
            raise InternalConsistencyError(
                f"certified square-sum hypothesis but containment fails: {record}")
        report.erratum_log.append(record)
    return report


def perturb_report(base: GFusionSystem, theta, k: BoundedOperator,
                   params: PerturbationParams, *, tol: ToleranceProfile) -> PerturbationReport:
    """Search the hypothesis once and check the conclusion it leaves in play."""
    family = _on_base(base, theta)
    verdict = perturb_hypothesis(base, family, k, params, tol)
    if verdict.falsified:
        return PerturbationReport(params, verdict)
    try:
        return _conclusion(base, family, k, params, verdict, tol)
    except InternalConsistencyError as exc:
        return PerturbationReport(params, verdict, error=str(exc))

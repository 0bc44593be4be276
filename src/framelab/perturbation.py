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
q_I(f) = sum_I v^2 |L pi f|^2.  Hypotheses are falsified by search, never
proved, except T-sqsum whose hypothesis is equivalent to the spectral
containment S_delta <= R k k* and can be certified exactly.

The search evaluates probes in blocks: one kernel takes a ``(p, n)`` block
of probes, forms the member terms and every subset sum as one stacked
product, and returns lhs - rhs for each (probe, subset) pair.  Each entry
keeps the bits of the same inequality evaluated at its probe alone, so the
verdict does not depend on the block size.  The member stage runs per
group of members with equal factor shapes and dtypes, not per member: the
factors ``L_j P_j`` and ``Th_j P_j`` of a group and their adjoints are
stacked once per search, and each block makes a few stacked matvecs per
group, scatters them into the members' columns of ``(p, members, dim)``
term buffers and applies the squared weights as one broadcast multiply.
Its cost per block grows with the number of groups, not members.  The
vector subset sums are stored dim-major, ``(p, dim, subsets)``; a real
search squares them in place, and each norm is one ``np.add.reduce`` over
the dim axis (:func:`~framelab.numerics.column_norms`), which adds whole
rows of ``subsets`` contiguous entries and copies none.  The float subset
weights, the member stacks and every buffer are built once per search, and
every block writes into the buffers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .frame_ops import (
    FrameBounds,
    FrameReport,
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
    column_norms,
    operator_norm,
    psd_check,
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
REFINE_STEPS = 40
# Entries of each (probes, dim, subsets) buffer a search allocates for its
# probe blocks, so that its memory stays flat however many subsets it walks.
# The subset sums are stored dim-major so that a real search squares them in
# place and sums each norm over whole rows.
PROBE_BLOCK_ENTRIES = 65_536


class PerturbationMode(Enum):
    """Hypothesis shapes, keyed by the tokens the CLI accepts."""

    SQRT_SUM = "P1-sqrt-sum"
    ADJOINT_TERM = "P-variant-kstar"
    AGGREGATE_NORM = "C-p2-normsum"
    SQUARE_SUM = "T-sqsum"


@dataclass(frozen=True)
class PerturbationParams:
    """Constants of a perturbation hypothesis.

    lambda1 and lambda2 live in [0, 1); gamma and R are nonnegative.  The
    bound-dependent admissibility (involving the base lower bound A) is
    checked by :func:`predicted_bounds`, not here.
    """

    lambda1: float = 0.0
    lambda2: float = 0.0
    gamma: float = 0.0
    R: float = 0.0
    mode: PerturbationMode = PerturbationMode.SQRT_SUM

    def __post_init__(self):
        for name in ("lambda1", "lambda2"):
            value = getattr(self, name)
            if not (0.0 <= value < 1.0) or not math.isfinite(value):
                raise InputError(f"{name} must lie in [0, 1), got {value!r}")
        for name in ("gamma", "R"):
            value = getattr(self, name)
            if value < 0.0 or not math.isfinite(value):
                raise InputError(f"{name} must be a finite nonnegative scalar, got {value!r}")
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

    ``falsified`` means some tested pair violated the inequality beyond
    tolerance; the converse is evidence, not proof.  ``worst_violation`` is
    the signed maximum of lhs - rhs over everything tested.
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
    if not (0.0 <= lambda1 < 1.0 and 0.0 <= lambda2 < 1.0):
        raise InputError("lambda1 and lambda2 must lie in [0, 1)")
    op = u if isinstance(u, BoundedOperator) else BoundedOperator(u)
    n = op.dim
    defect = operator_norm(op.matrix - np.eye(n, dtype=op.matrix.dtype))
    sigma = op.singular_values
    sigma_min = float(sigma[-1])
    sigma_max = float(sigma[0])
    slack = tol.for_scale(sigma_max)
    certified = defect <= lambda1 + lambda2 * sigma_min + slack
    lower = (1.0 - lambda1) / (1.0 + lambda2)
    upper = (1.0 + lambda1) / (1.0 - lambda2)
    report = PaleyWienerReport(
        certified=bool(certified),
        defect_norm=float(defect),
        sigma_min=sigma_min,
        sigma_max=sigma_max,
        predicted_sigma_lower=float(lower),
        predicted_sigma_upper=float(upper),
        inverse_lower=1.0 / upper,
        inverse_upper=1.0 / lower if lower > 0 else math.inf,
        conclusion_ok=None,
    )
    if certified:
        ok = (sigma_min >= lower - slack) and (sigma_max <= upper + slack)
        if sigma_min > slack:
            inv_min = 1.0 / sigma_max
            inv_max = 1.0 / sigma_min
            ok = ok and inv_min >= report.inverse_lower - slack
            ok = ok and inv_max <= report.inverse_upper + slack
        else:
            ok = False
        report.conclusion_ok = bool(ok)
        if not ok:
            raise InternalConsistencyError(
                f"certified case breaks the singular value bounds: "
                f"sigma in [{sigma_min:g}, {sigma_max:g}], "
                f"predicted [{lower:g}, {upper:g}]")
    return report


def _on_base(base: GFusionSystem, theta) -> GFusionSystem:
    """The perturbed local operators over the base subspaces and weights.

    ``theta`` is a system of the base shape (only its local operators are
    read) or a plain sequence of local operators/matrices.  A system already
    built over the base's own subspaces is returned as it is, so its cached
    factors are reused.
    """
    if isinstance(theta, GFusionSystem):
        if theta.size != base.size or theta.dim != base.dim:
            raise InputError("perturbed system does not match the base shape")
        if theta.space == base.space and all(
                sub is base_sub for (sub, _), (base_sub, _) in zip(theta.members, base.members)):
            return theta
        theta = [op for _, op in theta.members]
    return base.with_local_operators(theta)


def _member_data(base: GFusionSystem, family: GFusionSystem):
    """Per-member weights and factors the hypotheses are assembled from."""
    return [(sub.weight**2, lp, tp) for (sub, _), lp, tp
            in zip(base.members, base.local_factors, family.local_factors)]


class _Workspace:
    """The member stacks and buffers of one search, reused by every probe block.

    The per-search constants are read-only: ``weights`` holds the subset
    masks as floats, ``weights_t`` a C-contiguous copy of its transpose,
    ``w2`` the squared member weights as a ``(members, 1)`` column, and
    ``groups`` the members grouped by factor shape and dtypes, each as
    ``(columns, L P, (L P)*, Th P, (Th P)*)`` with ``(g, r, n)`` factor
    stacks and ``(g, n, r)`` adjoint stacks.  An adjoint stack is
    ``np.conj(stack).transpose(0, 2, 1)``, so each slice has the F-order
    layout of ``adjoint(lp)``, and each matmul slice keeps the shape and
    strides, and so the bits, of the one-member product.  Members are not
    padded to one shape: that would change the inner length of the
    products, and with it the summation inside them.

    The buffers: ``base``, ``pert`` and ``terms`` hold the
    ``(probes, members, dim)`` member terms of one block, ``scalars`` its
    ``(probes, members, 1)`` scalar member terms, ``sums`` the dim-major
    ``(probes, dim, subsets)`` subset sums ``terms^T @ weights_t``,
    ``column_sums`` the ``(probes, subsets, 1)`` sums ``weights @ scalars``
    of scalar member terms, and ``norms`` three ``(probes, subsets)``
    results.  A real search squares ``sums`` in place, so ``squares`` is
    None; a complex one squares into the complex ``squares`` scratch of the
    same shape, since ``(conj(x) * x).real``, the product ``column_norms``
    takes, need not have the bits of ``re**2 + im**2``.  The scalar sums
    stay in the ``(subsets, members)`` layout: as a product with
    ``weights_t`` their matrix-vector products round otherwise.  Built for
    blocks of up to ``len(probes)`` probes of that dtype; a smaller block
    writes into leading views, which keep the layout of a fresh array and
    so its bits.
    """

    def __init__(self, masks, data, probes):
        rows, n = probes.shape
        subsets, members = masks.shape
        dtype = np.result_type(probes, *(m for _, lp, tp in data for m in (lp, tp)))
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
        self.base = np.empty((rows, members, n), dtype)
        self.pert = np.empty_like(self.base)
        self.terms = np.empty_like(self.base)
        self.scalars = np.empty((rows, members, 1))
        self.sums = np.empty((rows, n, subsets), dtype)
        self.squares = np.empty_like(self.sums) if self.sums.dtype.kind == "c" else None
        self.column_sums = np.empty((rows, subsets, 1))
        self.norms = np.empty((3, rows, subsets))


def _gap_and_scale(lhs, rhs):
    """lhs - rhs and 1 + lhs + rhs, as new arrays."""
    scale = np.add(1.0, lhs)
    scale += rhs
    return lhs - rhs, scale


def _violations(masks, data, k_mat, probes, params: PerturbationParams,
                work: _Workspace | None = None):
    """lhs - rhs and scale for every (probe, subset) pair of a probe block.

    ``probes`` is a ``(p, n)`` block; both results are new ``(p, subsets)``
    arrays.  The member terms of each group of equal factor shapes are a few
    stacked matvecs over the block, scattered into the members' columns of
    the ``(p, members, dim)`` term buffers and weighted by one broadcast
    multiply; vector subset sums are stacked ``terms^T @ weights_t`` and
    their norms are one reduce over the dim axis, so every entry carries the
    bits of the same inequality evaluated member by member at its probe
    alone.  Every larger intermediate is written into ``work``, the stacks
    and buffers of the search (built here when not given).
    """
    work = work or _Workspace(masks, data, probes)
    lam1, lam2, gamma, r = params.lambda1, params.lambda2, params.gamma, params.R
    p = probes.shape[0]
    stacked = probes[:, None, :, None]
    scalars = work.scalars[:p]

    def scalar_sums():
        """(p, subsets) subset sums of the weighted scalar member terms."""
        np.multiply(scalars, work.w2, out=scalars)
        return np.matmul(work.weights, scalars, out=work.column_sums[:p])[..., 0]

    def sum_norms(terms, slot):
        """(p, subsets) norms of the subset sums of (p, members, n) member terms."""
        sums = np.matmul(terms.transpose(0, 2, 1), work.weights_t, out=work.sums[:p])
        squares = sums if work.squares is None else work.squares[:p]
        return column_norms(sums, out=work.norms[slot, :p], squares=squares)

    kf_norm = row_norms((adjoint(k_mat) @ probes[:, :, None])[..., 0])[:, None]
    if params.mode is PerturbationMode.SQUARE_SUM:
        for columns, lps, _, tps, _ in work.groups:
            scalars[:, columns, 0] = row_sq_norms((lps @ stacked - tps @ stacked)[..., 0])
        return _gap_and_scale(scalar_sums(), r * np.float_power(kf_norm, 2.0))
    base, pert, terms = work.base[:p], work.pert[:p], work.terms[:p]
    for columns, lps, lph, tps, tph in work.groups:
        images = lps @ stacked
        base[:, columns] = (lph @ images)[..., 0]
        pert[:, columns] = (tph @ (tps @ stacked))[..., 0]
        if params.mode is PerturbationMode.SQRT_SUM:
            scalars[:, columns, 0] = row_sq_norms(images[..., 0])
    np.subtract(base, pert, out=terms)
    lhs = sum_norms(np.multiply(terms, work.w2, out=terms), 0)
    if params.mode is PerturbationMode.AGGREGATE_NORM:
        return _gap_and_scale(lhs, r * kf_norm)
    rhs = sum_norms(np.multiply(base, work.w2, out=base), 1)
    rhs *= lam1
    term = sum_norms(np.multiply(pert, work.w2, out=pert), 2)
    term *= lam2
    rhs += term
    if params.mode is PerturbationMode.SQRT_SUM:
        term = np.sqrt(scalar_sums(), out=work.norms[2, :p])
        term *= gamma
        rhs += term
    else:
        rhs += gamma * kf_norm
    return _gap_and_scale(lhs, rhs)


def perturb_hypothesis(base: GFusionSystem, theta, k: BoundedOperator,
                       params: PerturbationParams,
                       tol: ToleranceProfile = DEFAULT_TOL) -> HypothesisVerdict:
    """Search for a (subset, probe) pair violating the mode's inequality.

    Subsets are exhaustive up to 12 members, otherwise a deterministic sample
    of 512 including the full set, singletons, and their complements.  Probes
    are the standard basis, 200 seeded unit vectors, and a gradient-ascent
    refinement of the worst probe found.  The basis and the seeded probes
    are evaluated in blocks of consecutive probes, each block sized so that
    a (probes, dim, subsets) buffer holds about ``PROBE_BLOCK_ENTRIES``
    entries, and folded in probe order; the refinement evaluates one probe
    per step.  The buffers are allocated once per search and shared by
    every block and step.  Ties go to the earliest probe.  A verdict of
    not-falsified is evidence over the tested pairs, never a proof.
    """
    family = _on_base(base, theta)
    data = _member_data(base, family)
    k_mat = k.matrix
    masks = subset_masks(base.size)
    n = base.dim
    complex_field = base.space.field == "complex" or any(
        np.iscomplexobj(tp) for _, _, tp in data)
    probes = unit_probes(n, RANDOM_PROBES, complex_field=complex_field, seed=0xFA15)
    block = max(1, PROBE_BLOCK_ENTRIES // (masks.shape[0] * n))
    work = _Workspace(masks, data, probes[:block])

    worst = -math.inf
    worst_subset = ()
    worst_probe = None
    falsified = False
    probes_tested = 0

    def consider(fs):
        """Fold a block of probes into the search; the last probe's gap."""
        nonlocal worst, worst_subset, worst_probe, falsified, probes_tested
        gaps, scales = _violations(masks, data, k_mat, fs, params, work)
        if (gaps > tol.tau_abs + tol.tau_rel * scales).any():
            falsified = True
        for f, row_gaps, row in zip(fs, gaps, np.argmax(gaps, axis=1)):
            probes_tested += 1
            gap = float(row_gaps[row])
            # ties go to the earliest probe: noise-level gains never displace it
            if worst_probe is None or gap > worst + 1e-12 * max(1.0, abs(worst)):
                worst = gap
                worst_subset = tuple(int(j) for j in np.flatnonzero(masks[row]))
                worst_probe = np.array(f)
        return gap

    for start in range(0, probes.shape[0], block):
        consider(probes[start:start + block])

    if worst_probe is not None:
        f = worst_probe.astype(complex if complex_field else float)
        current = worst
        step = 0.25
        rng = np.random.Generator(np.random.PCG64(0xA5CE17))
        for _ in range(REFINE_STEPS):
            direction = rng.standard_normal(n)
            if complex_field:
                direction = direction + 1j * rng.standard_normal(n)
            candidate = f + step * direction
            norm = np.linalg.norm(candidate)
            if norm == 0.0:
                continue
            gap = consider((candidate / norm)[None, :])
            if gap > current:
                current = gap
                f = candidate / norm
            else:
                step *= 0.5
                if step < 1e-6:
                    break

    return HypothesisVerdict(
        falsified=bool(falsified),
        worst_violation=float(worst),
        subsets_tested=int(masks.shape[0]),
        probes_tested=probes_tested,
        worst_subset=worst_subset,
        worst_probe=worst_probe,
    )


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


def _square_sum_certificate(base: GFusionSystem, family: GFusionSystem,
                            k: BoundedOperator, r: float, tol: ToleranceProfile) -> bool:
    """Exact spectral test of the T-sqsum hypothesis: S_delta <= R k k*."""
    gaps = [op.matrix - th.matrix
            for (_, op), (_, th) in zip(base.members, family.members)]
    s_delta = frame_operator(base.with_local_operators(gaps))
    return psd_check(r * k.times_adjoint - s_delta, tol)


def verify_perturbation_theorem(base: GFusionSystem, theta, k: BoundedOperator,
                                params: PerturbationParams,
                                tol: ToleranceProfile = DEFAULT_TOL) -> PerturbationReport:
    """Check a perturbation theorem's conclusion against measured bounds.

    Preconditions: the base is a frame for k and :func:`perturb_hypothesis`
    does not falsify the hypothesis.  The perturbed family -- theta's local
    operators over the base subspaces and weights, the family the hypothesis
    was tested on -- is verified as a frame for k and its optimal bounds are
    compared with :func:`predicted_bounds`.  For the square-sum mode with a
    spectrally certified hypothesis a containment failure raises
    :class:`InternalConsistencyError`; in every other case failures are
    recorded in ``erratum_log`` and reported, because the constants in those
    conclusions are not independently established.
    """
    family = _on_base(base, theta)
    verdict = perturb_hypothesis(base, family, k, params, tol)
    if verdict.falsified:
        raise PreconditionError(
            f"hypothesis falsified with worst violation {verdict.worst_violation:g}; "
            "the theorem's conclusion is not in play")
    return _conclusion(base, family, k, params, verdict, tol)


def _conclusion(base: GFusionSystem, family: GFusionSystem, k: BoundedOperator,
                params: PerturbationParams, verdict: HypothesisVerdict,
                tol: ToleranceProfile) -> PerturbationReport:
    """The theorem's conclusion on ``family``, whose hypothesis ``verdict`` kept."""
    base_bounds = optimal_bounds(base, k, tol)
    theta_report = verify_k_g_fusion(family, k, tol=tol)
    report = PerturbationReport(params, verdict, base_bounds, theta_report)
    if params.mode is PerturbationMode.SQUARE_SUM:
        report.hypothesis_certified = _square_sum_certificate(base, family, k, params.R, tol)
    if params.mode is PerturbationMode.ADJOINT_TERM:
        report.gamma_readings = variant_gamma_readings(
            params, base_bounds.lower, base_bounds.upper, k.norm)
    try:
        report.predicted = predicted_bounds(params, base_bounds.lower,
                                            base_bounds.upper, k.norm)
    except InputError as exc:
        report.erratum_log.append({
            "kind": "inadmissible-parameters",
            "mode": params.mode.value,
            "detail": str(exc),
        })
        return report
    if not theta_report.is_frame:
        record = {
            "kind": "perturbed-family-not-a-frame",
            "mode": params.mode.value,
            "predicted_lower": report.predicted.lower,
            "detail": "hypothesis not falsified yet the perturbed family fails frame verification",
        }
        if report.hypothesis_certified:
            raise InternalConsistencyError(record["detail"])
        report.erratum_log.append(record)
        return report
    report.theta_bounds = optimal_bounds(family, k, tol)
    slack = tol.for_scale(max(report.predicted.upper, report.theta_bounds.upper))
    report.lower_contained = bool(report.predicted.lower <= report.theta_bounds.lower + slack)
    report.upper_contained = bool(report.theta_bounds.upper <= report.predicted.upper + slack)
    if not (report.lower_contained and report.upper_contained):
        record = {
            "kind": "bound-containment-failure",
            "mode": params.mode.value,
            "predicted": [report.predicted.lower, report.predicted.upper],
            "measured": [report.theta_bounds.lower, report.theta_bounds.upper],
            "lower_contained": report.lower_contained,
            "upper_contained": report.upper_contained,
        }
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

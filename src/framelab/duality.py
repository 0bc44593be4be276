"""Dual systems: coupled Q-duals, canonical duals, and subset identities.

Two dual notions live here.  A *Q-dual* couples the synthesis operators of two
systems through an operator Q on the coordinate sums so that
``T Q* Ttilde* = k``.  A *reconstruction dual* satisfies the member-wise
expansion ``k f = sum_j v_j^2 pi_Wj Lj* Ltilde_j pi_Wtilde_j f``; the
canonical one is built from the frame operator inverted along ran(k).  The
subset identities (partial-operator coupling, the Parseval subset identity
and the three-quarters lower bound) are evaluated on probe vectors.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frame_ops import (
    FrameReport,
    frame_operator,
    optimal_bounds,
    restricted_inverse,
    synthesis,
    verify_k_g_fusion,
)
from .model import BoundedOperator, GFusionSystem, LocalOperator, WeightedSubspace
from .numerics import (
    DEFAULT_TOL,
    InputError,
    InternalConsistencyError,
    PreconditionError,
    ToleranceProfile,
    adjoint,
    hermitian_eig,
    inner,
    operator_norm,
    orthonormalize,
    pinv,
    psd_check,
    unit_probes,
)

__all__ = [
    "DualConstructionError",
    "QDualPair",
    "QDualReport",
    "verify_q_dual",
    "construct_q_dual",
    "QDualBoundReport",
    "qdual_bound_corollary",
    "KGFDualPair",
    "canonical_dual",
    "KGFDualReport",
    "verify_kgf_dual",
    "PartialOperator",
    "partial_operator",
    "complement_residual",
    "SubsetIdentityResult",
    "check_dual_subset_identity",
    "check_parseval_subset_identity",
    "ThreeQuartersResult",
    "check_three_quarters_bound",
    "parsevalize",
]


class DualConstructionError(RuntimeError):
    """No tested subspace reading produced a certified dual."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = dict(residuals or {})


@dataclass
class QDualPair:
    """A base system, a candidate dual, and the coupling operator Q.

    ``q`` maps the coordinate sum of the base into that of the dual, so the
    defining identity reads T_base Q* T_dual* = k.  ``reading`` records which
    subspace construction produced the dual; ``well_defined_residual`` is the
    mass of the factor u on ker(T_dual*), which the construction must
    annihilate for the coupling to be canonical.
    """

    base: GFusionSystem
    dual: GFusionSystem
    q: np.ndarray
    k: BoundedOperator
    residual: float
    reading: str = "given"
    well_defined_residual: float = float("nan")


@dataclass
class QDualReport:
    """Residuals of the three equivalent forms of the coupling identity."""

    synthesis_residual: float
    adjoint_residual: float
    bilinear_residual: float
    passed: bool


def verify_q_dual(pair: QDualPair, tol: ToleranceProfile | None = None,
                  probes: int = 25) -> QDualReport:
    """Check the coupling identity in its three equivalent forms.

    The forms are the synthesis identity T Q* Ttilde* = k, its adjoint, and
    the bilinear probe identity <k f, g> = <Q* Ttilde* f, T* g>.  They are
    mathematically equivalent; verdict disagreement raises
    :class:`InternalConsistencyError`.
    """
    tol = tol or DEFAULT_TOL
    t_base = synthesis(pair.base).matrix
    t_dual = synthesis(pair.dual).matrix
    q = pair.q
    if q.shape != (t_dual.shape[1], t_base.shape[1]):
        raise InputError(
            f"coupling operator has shape {q.shape}, expected "
            f"{(t_dual.shape[1], t_base.shape[1])}")
    k = pair.k.matrix
    form1 = operator_norm(t_base @ adjoint(q) @ adjoint(t_dual) - k)
    form2 = operator_norm(t_dual @ q @ adjoint(t_base) - adjoint(k))
    n = pair.base.dim
    complex_field = any(np.iscomplexobj(m) for m in (t_base, t_dual, q, k))
    fs = unit_probes(n, probes, complex_field=complex_field, seed=0xD0A)
    gs = unit_probes(n, probes, complex_field=complex_field, seed=0xD0B)
    form3 = 0.0
    for f, g in zip(fs, gs):
        lhs = inner(k @ f, g)
        rhs = inner(adjoint(q) @ (adjoint(t_dual) @ f), adjoint(t_base) @ g)
        form3 = max(form3, abs(lhs - rhs))
    threshold = tol.for_scale(pair.k.norm)
    verdicts = [form1 <= threshold, form2 <= threshold, form3 <= threshold]
    if len(set(verdicts)) != 1:
        raise InternalConsistencyError(
            f"equivalent coupling forms disagree: residuals "
            f"{form1:g}, {form2:g}, {form3:g} against {threshold:g}")
    return QDualReport(float(form1), float(form2), float(form3), bool(all(verdicts)))


def _dual_candidate(system: GFusionSystem, bases, tol: ToleranceProfile) -> GFusionSystem:
    members = []
    for (sub, op), basis in zip(system.members, bases):
        members.append((WeightedSubspace(basis, sub.weight, tol=tol), op))
    return GFusionSystem(system.space, tuple(members))


def construct_q_dual(system: GFusionSystem, k: BoundedOperator,
                     tol: ToleranceProfile | None = None) -> QDualPair:
    """Build a Q-dual from the minimal factor u of T u = k.

    The dual keeps the local operators and weights and moves only the
    subspaces.  Three readings of the moved subspace are tried in order until
    one certifies: ``literal`` uses ran(u_j* u_j pi_Wj), ``range`` uses
    ran(u_j*), and ``gram`` uses ran(u* u pi_Wj) with the whole factor's Gram
    operator.  The accepted reading is recorded on the returned pair; if none
    certifies a :class:`DualConstructionError` carries all three residuals.
    """
    tol = tol or DEFAULT_TOL
    report = verify_k_g_fusion(system, k, tol=tol)
    if not report.is_frame:
        raise PreconditionError("system is not a frame for k; no dual exists")
    t = synthesis(system)
    u = report.douglas.u_min
    blocks = [u[start:stop, :] for start, stop in t.block_offsets]
    gram = adjoint(u) @ u

    def literal_basis(j):
        sub, _ = system.members[j]
        return orthonormalize(adjoint(blocks[j]) @ (blocks[j] @ sub.basis), tol)

    def range_basis(j):
        return orthonormalize(adjoint(blocks[j]), tol)

    def gram_basis(j):
        sub, _ = system.members[j]
        return orthonormalize(gram @ sub.basis, tol)

    readings = (("literal", literal_basis), ("range", range_basis), ("gram", gram_basis))
    threshold = tol.for_scale(k.norm)
    residuals = {}
    for name, make in readings:
        bases = [make(j) for j in range(system.size)]
        dual = _dual_candidate(system, bases, tol)
        t_dual_adj = adjoint(synthesis(dual).matrix)
        t_dual_pinv = pinv(t_dual_adj, tol)
        phi = u @ t_dual_pinv
        residual = operator_norm(t.matrix @ phi @ t_dual_adj - k.matrix)
        residuals[name] = float(residual)
        if residual <= threshold:
            well_defined = operator_norm(u - u @ (t_dual_pinv @ t_dual_adj))
            pair = QDualPair(system, dual, adjoint(phi), k, float(residual),
                             reading=name, well_defined_residual=float(well_defined))
            verify_q_dual(pair, tol)
            return pair
    raise DualConstructionError(
        "no subspace reading certified the coupling identity", residuals)


@dataclass
class QDualBoundReport:
    """Optimal dual bounds against the coupling-derived floor.

    The dual of a k-frame is a k*-frame; its optimal bounds (C, D) must
    dominate (B^-1 |Q|^-2, A^-1 |Q|^-2) with (A, B) the base optimal bounds.
    """

    dual_lower: float
    dual_upper: float
    lower_floor: float
    upper_floor: float
    q_norm: float
    lower_ok: bool
    upper_ok: bool


def qdual_bound_corollary(pair: QDualPair, tol: ToleranceProfile | None = None) -> QDualBoundReport:
    tol = tol or DEFAULT_TOL
    coupling = verify_q_dual(pair, tol)
    if not coupling.passed:
        raise PreconditionError(
            f"coupling identity residual {coupling.synthesis_residual:g} is not "
            "certified; the bound corollary needs a certified pair")
    base_bounds = optimal_bounds(pair.base, pair.k, tol)
    k_adj = pair.k.adjoint()
    dual_bounds = optimal_bounds(pair.dual, k_adj, tol)
    q_norm = operator_norm(pair.q)
    lower_floor = 1.0 / (base_bounds.upper * q_norm**2)
    upper_floor = 1.0 / (base_bounds.lower * q_norm**2)
    slack = tol.for_scale(max(dual_bounds.lower, dual_bounds.upper))
    return QDualBoundReport(
        dual_lower=dual_bounds.lower,
        dual_upper=dual_bounds.upper,
        lower_floor=float(lower_floor),
        upper_floor=float(upper_floor),
        q_norm=float(q_norm),
        lower_ok=bool(dual_bounds.lower >= lower_floor - slack),
        upper_ok=bool(dual_bounds.upper >= upper_floor - slack),
    )


@dataclass
class KGFDualPair:
    """A base system and a member-wise reconstruction dual for k.

    ``residual`` is the worst probe defect of
    ``k f = sum_j v_j^2 pi_Wj Lj* Ltilde_j pi_Wtilde_j f`` normalized by
    1 + |k f|.  ``exploratory`` marks pairs built over a rank-deficient k,
    where the defect is reported rather than asserted.
    """

    base: GFusionSystem
    dual: GFusionSystem
    k: BoundedOperator
    residual: float
    exploratory: bool = False


def _probe_residual(pair: KGFDualPair, coupling: np.ndarray, probes: int = 50) -> float:
    k = pair.k.matrix
    complex_field = np.iscomplexobj(coupling) or np.iscomplexobj(k)
    worst = 0.0
    for f in unit_probes(pair.base.dim, probes, complex_field=complex_field, seed=0xCAFE):
        kf = k @ f
        defect = float(np.linalg.norm(kf - coupling @ f)) / (1.0 + float(np.linalg.norm(kf)))
        worst = max(worst, defect)
    return worst


def canonical_dual(system: GFusionSystem, k: BoundedOperator,
                   tol: ToleranceProfile | None = None) -> KGFDualPair:
    """Canonical reconstruction dual through the restricted inverse.

    With X the inverse of the frame operator along ran(k) and P the projection
    onto S(ran k), the dual members are
    ``Wtilde_j = ran(k* X P pi_Wj)`` and ``Ltilde_j = Lj pi_Wj P X* k`` with
    unchanged weights.  For invertible k the reconstruction identity holds
    within tolerance; for rank-deficient k the pair is exploratory and the
    residual is only recorded.
    """
    tol = tol or DEFAULT_TOL
    ri = restricted_inverse(system, k, tol)
    x = ri.matrix
    p_img = ri.image_basis @ adjoint(ri.image_basis)
    k_mat = k.matrix
    members = []
    for (sub, _), lp in zip(system.members, system.local_factors):
        basis = orthonormalize(adjoint(k_mat) @ (x @ (p_img @ sub.basis)), tol)
        local = lp @ p_img @ adjoint(x) @ k_mat
        members.append((WeightedSubspace(basis, sub.weight, tol=tol), LocalOperator(local)))
    dual = GFusionSystem(system.space, tuple(members))
    exploratory = not k.is_invertible(tol)
    pair = KGFDualPair(system, dual, k, 0.0, exploratory=exploratory)
    pair.residual = _probe_residual(pair, frame_operator(system, dual))
    return pair


@dataclass
class KGFDualReport:
    """Operator-level verdict on a reconstruction dual, plus the k*-frame facts."""

    operator_residual: float
    probe_residual: float
    passed: bool
    exploratory: bool
    dual_report: FrameReport | None = None
    certified_lower: float | None = None
    certified_lower_ok: bool | None = None


def verify_kgf_dual(pair: KGFDualPair, tol: ToleranceProfile | None = None) -> KGFDualReport:
    """Operator-norm check of the reconstruction identity.

    When the identity certifies, the dual is additionally verified to be a
    frame for k* with lower bound 1/B, B the base optimal upper bound.
    """
    tol = tol or DEFAULT_TOL
    coupling = frame_operator(pair.base, pair.dual)
    operator_residual = operator_norm(coupling - pair.k.matrix)
    probe_residual = _probe_residual(pair, coupling)
    passed = operator_residual <= tol.for_scale(pair.k.norm)
    report = KGFDualReport(float(operator_residual), float(probe_residual),
                           bool(passed), pair.exploratory)
    if passed:
        base_upper = optimal_bounds(pair.base, pair.k, tol).upper
        report.dual_report = verify_k_g_fusion(pair.dual, pair.k.adjoint(), tol=tol)
        report.certified_lower = 1.0 / base_upper
        s_dual = frame_operator(pair.dual)
        ksk = adjoint(pair.k.matrix) @ pair.k.matrix
        report.certified_lower_ok = psd_check(s_dual - report.certified_lower * ksk, tol)
    return report


@dataclass
class PartialOperator:
    """Partial coupling operator over an index subset of a dual pair."""

    index_set: frozenset
    matrix: np.ndarray


def _split(size: int, index_set):
    """The index set I and its complement in range(size).

    :func:`frame_operator` rejects an I that escapes range(size).
    """
    idx = frozenset(int(j) for j in index_set)
    return idx, frozenset(range(size)) - idx


def _probe_vector(f, dim: int) -> np.ndarray:
    f = np.asarray(f).reshape(-1)
    if f.shape[0] != dim:
        raise InputError("probe vector has wrong dimension")
    return f


def partial_operator(pair: KGFDualPair, index_set) -> PartialOperator:
    """S_I = sum over j in I of v_j^2 pi_Wj Lj* Ltilde_j pi_Wtilde_j."""
    idx = frozenset(int(j) for j in index_set)
    return PartialOperator(idx, frame_operator(pair.base, pair.dual, idx))


def complement_residual(pair: KGFDualPair, index_set,
                        tol: ToleranceProfile | None = None) -> float:
    """Defect of S_I + S_{I^c} = k in operator norm."""
    idx, comp = _split(pair.base.size, index_set)
    s_i = frame_operator(pair.base, pair.dual, idx)
    s_c = frame_operator(pair.base, pair.dual, comp)
    return float(operator_norm(s_i + s_c - pair.k.matrix))


@dataclass
class SubsetIdentityResult:
    """Two sides of a subset identity and their normalized disagreement."""

    lhs: complex
    rhs: complex
    residual: float
    passed: bool


def check_dual_subset_identity(pair: KGFDualPair, index_set, f,
                               tol: ToleranceProfile | None = None) -> SubsetIdentityResult:
    """Complementary-subset identity coupling dual coefficients and S_I norms.

    For a certified reconstruction dual,
    ``sum_{j in I} v_j^2 <Ltilde_j pi~_j f, Lj pi_j k f> - |S_I f|^2`` equals
    the conjugate-complement expression with I replaced by its complement.
    The coefficient sum over I is ``<S_I f, k f>``.  The identity needs
    S_I + S_{I^c} = k, so an uncertified pair is rejected.
    """
    tol = tol or DEFAULT_TOL
    coupling_defect = operator_norm(frame_operator(pair.base, pair.dual) - pair.k.matrix)
    if coupling_defect > tol.for_scale(pair.k.norm):
        raise PreconditionError(
            f"reconstruction defect {coupling_defect:g} exceeds tolerance; "
            "the subset identity needs a certified dual pair")
    idx, comp = _split(pair.base.size, index_set)
    f = _probe_vector(f, pair.base.dim)
    kf = pair.k.matrix @ f
    s_i_f = frame_operator(pair.base, pair.dual, idx) @ f
    s_c_f = frame_operator(pair.base, pair.dual, comp) @ f
    lhs = inner(s_i_f, kf) - float(np.linalg.norm(s_i_f))**2
    rhs = np.conj(inner(s_c_f, kf)) - float(np.linalg.norm(s_c_f))**2
    residual = abs(lhs - rhs)
    passed = residual <= tol.for_scale(1.0) * (1.0 + abs(lhs))
    return SubsetIdentityResult(lhs, rhs, float(residual), bool(passed))


def _require_parseval(system: GFusionSystem, k: BoundedOperator, tol: ToleranceProfile):
    s = frame_operator(system)
    kk = k.matrix @ adjoint(k.matrix)
    defect = operator_norm(s - kk)
    if defect > tol.for_scale(operator_norm(kk)):
        raise PreconditionError(
            f"system is not Parseval for k: |S - k k*| = {defect:g}")
    return kk


def check_parseval_subset_identity(system: GFusionSystem, k: BoundedOperator,
                                   index_set, extension_set, f,
                                   tol: ToleranceProfile | None = None) -> SubsetIdentityResult:
    """Subset-extension identity for Parseval systems.

    With S_J = k k*, extending I by a disjoint E inside its complement shifts
    the difference of squared partial-operator norms by twice the real part of
    the E-indexed coefficient sum ``<S_E f, k k* f>``.
    """
    tol = tol or DEFAULT_TOL
    kk = _require_parseval(system, k, tol)
    idx, comp = _split(system.size, index_set)
    ext = frozenset(int(j) for j in extension_set)
    if not ext <= comp:
        raise InputError("extension set must lie in the complement of the base index set")
    f = _probe_vector(f, system.dim)

    def partial_f(subset):
        return frame_operator(system, index_set=subset) @ f

    def norms2(subset):
        return float(np.linalg.norm(partial_f(subset)))**2

    lhs = norms2(idx | ext) - norms2(comp - ext)
    rhs = norms2(idx) - norms2(comp) + 2.0 * inner(partial_f(ext), kk @ f).real
    residual = abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))
    passed = residual <= tol.for_scale(1.0)
    return SubsetIdentityResult(complex(lhs), complex(rhs), float(residual), bool(passed))


@dataclass
class ThreeQuartersResult:
    """Both orientations of the three-quarters bound and the attained slack."""

    lhs: float
    rhs: float
    target: float
    symmetry_residual: float
    slack: float
    passed: bool


def check_three_quarters_bound(system: GFusionSystem, k: BoundedOperator,
                               index_set, f,
                               tol: ToleranceProfile | None = None) -> ThreeQuartersResult:
    """Lower bound |S_I f|^2 + Re sum_{I^c} coeff >= (3/4) |k k* f|^2.

    Requires a Parseval system; the coefficient sum over I^c is
    ``<S_{I^c} f, k k* f>``.  Both subset orientations are evaluated; they
    agree identically and each clears three quarters of |k k* f|^2.
    """
    tol = tol or DEFAULT_TOL
    kk = _require_parseval(system, k, tol)
    idx, comp = _split(system.size, index_set)
    f = _probe_vector(f, system.dim)
    kkf = kk @ f
    s_i_f = frame_operator(system, index_set=idx) @ f
    s_c_f = frame_operator(system, index_set=comp) @ f
    lhs = float(np.linalg.norm(s_i_f))**2 + inner(s_c_f, kkf).real
    rhs = float(np.linalg.norm(s_c_f))**2 + inner(s_i_f, kkf).real
    target = 0.75 * float(np.linalg.norm(kkf))**2
    scale = 1.0 + abs(lhs) + abs(rhs) + target
    symmetry_residual = abs(lhs - rhs)
    slack = lhs - target
    passed = (symmetry_residual <= tol.for_scale(1.0) * scale
              and slack >= -tol.for_scale(1.0) * scale)
    return ThreeQuartersResult(float(lhs), float(rhs), float(target),
                               float(symmetry_residual), float(slack), bool(passed))


def parsevalize(system: GFusionSystem, tol: ToleranceProfile | None = None) -> BoundedOperator:
    """The operator k = S^(1/2), which makes the system Parseval for k."""
    tol = tol or DEFAULT_TOL
    s = frame_operator(system)
    w, v = hermitian_eig(s, tol)
    w = np.clip(w, 0.0, None)
    root = (v * np.sqrt(w)) @ adjoint(v)
    return BoundedOperator(root)

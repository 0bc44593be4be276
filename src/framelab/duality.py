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

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .frame_ops import (
    FrameReport,
    _index_mask,
    _memoized,
    _one_probe,
    _probe_block,
    _require_masks,
    frame_operator,
    optimal_bounds,
    restricted_inverse,
    subset_frame_operators,
    subset_masks,
    verify_k_g_fusion,
)
from .model import BoundedOperator, GFusionSystem, LocalOperator, WeightedSubspace, _read_only
from .numerics import (
    DEFAULT_TOL,
    DualConstructionError,
    InputError,
    InternalConsistencyError,
    PreconditionError,
    ToleranceProfile,
    adjoint,
    hermitian_eig,
    numerical_rank,
    operator_norm,
    orthonormalize,
    pinv,
    psd_check,
    row_inners,
    row_norms,
    row_sq_norms,
    unit_probes,
    within_scale,
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
    "complement_residual",
    "SubsetIdentityResult",
    "check_dual_subset_identity",
    "check_parseval_subset_identity",
    "ThreeQuartersResult",
    "check_three_quarters_bound",
    "DualSubsetSweep",
    "dual_subset_sweep",
    "ParsevalSubsetSweep",
    "parseval_subset_sweep",
    "parsevalize",
    "IdentitiesReport",
    "identities_report",
]


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


@dataclass(frozen=True)
class QDualReport:
    """Residuals of the three equivalent forms of the coupling identity."""

    synthesis_residual: float
    adjoint_residual: float
    bilinear_residual: float
    passed: bool


def verify_q_dual(pair: QDualPair, tol: ToleranceProfile = DEFAULT_TOL) -> QDualReport:
    """Check the coupling identity in its three equivalent forms.

    The forms are the synthesis identity T Q* Ttilde* = k, its adjoint, and
    the bilinear probe identity <k f, g> = <Q* Ttilde* f, T* g> on the standard
    basis plus 25 seeded probes.  They are
    mathematically equivalent; verdict disagreement raises
    :class:`InternalConsistencyError`.  The check runs once per (pair, tol).
    """
    return _memoized(pair, ("forms", tol), lambda: _q_dual_forms(pair, tol))


def _q_dual_forms(pair: QDualPair, tol: ToleranceProfile) -> QDualReport:
    t_base = pair.base.synthesis_matrix
    t_dual = pair.dual.synthesis_matrix
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
    fs = unit_probes(n, 25, complex_field=complex_field, seed=0xD0A)[:, :, None]
    gs = unit_probes(n, 25, complex_field=complex_field, seed=0xD0B)[:, :, None]
    lhs = row_inners((k @ fs)[..., 0], gs[..., 0])
    rhs = row_inners((adjoint(q) @ (adjoint(t_dual) @ fs))[..., 0],
                     (adjoint(t_base) @ gs)[..., 0])
    form3 = float(_modulus(lhs - rhs).max())
    verdicts = [within_scale(form, pair.k.norm, tol) for form in (form1, form2, form3)]
    if len(set(verdicts)) != 1:
        raise InternalConsistencyError(
            f"equivalent coupling forms disagree: residuals "
            f"{form1:g}, {form2:g}, {form3:g} against {tol.for_scale(pair.k.norm):g}")
    return QDualReport(float(form1), float(form2), float(form3), bool(all(verdicts)))


def _dual_candidate(system: GFusionSystem, bases) -> GFusionSystem:
    return GFusionSystem(system.space, tuple(
        (WeightedSubspace(basis, sub.weight), op)
        for (sub, op), basis in zip(system.members, bases)))


def construct_q_dual(system: GFusionSystem, k: BoundedOperator,
                     tol: ToleranceProfile = DEFAULT_TOL) -> QDualPair:
    """Build a Q-dual from the minimal factor u of T u = k.

    The dual keeps the local operators and weights and moves only the
    subspaces.  Three readings of the moved subspace are tried in order until
    one certifies: ``literal`` uses ran(u_j* u_j pi_Wj), ``range`` uses
    ran(u_j*), and ``gram`` uses ran(u* u pi_Wj) with the whole factor's Gram
    operator.  The accepted reading is recorded on the returned pair; if none
    certifies a :class:`DualConstructionError` carries all three residuals.
    """
    report = verify_k_g_fusion(system, k, tol=tol)
    if not report.is_frame:
        raise PreconditionError("system is not a frame for k; no dual exists")
    t = system.synthesis_matrix
    u = report.douglas.u_min
    blocks = np.split(u, np.cumsum(system.local_dims())[:-1])
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
    residuals = {}
    for name, make in readings:
        bases = [make(j) for j in range(system.size)]
        dual = _dual_candidate(system, bases)
        t_dual_adj = adjoint(dual.synthesis_matrix)
        t_dual_pinv = pinv(t_dual_adj, tol)
        phi = u @ t_dual_pinv
        residual = operator_norm(t @ phi @ t_dual_adj - k.matrix)
        residuals[name] = float(residual)
        if within_scale(residual, k.norm, tol):
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
    ``coupling`` and ``dual_report`` are the verdicts the bounds rest on.
    """

    dual_lower: float
    dual_upper: float
    lower_floor: float
    upper_floor: float
    q_norm: float
    lower_ok: bool
    upper_ok: bool
    coupling: QDualReport
    dual_report: FrameReport

    @property
    def passed(self) -> bool:
        """The dual is a k*-frame and both bounds clear their floors."""
        return self.dual_report.is_frame and self.lower_ok and self.upper_ok


def qdual_bound_corollary(pair: QDualPair, tol: ToleranceProfile = DEFAULT_TOL) -> QDualBoundReport:
    """The bound corollary for a certified Q-dual pair."""
    coupling = verify_q_dual(pair, tol)
    if not coupling.passed:
        raise PreconditionError(
            f"coupling identity residual {coupling.synthesis_residual:g} is not "
            "certified; the bound corollary needs a certified pair")
    base_bounds = optimal_bounds(pair.base, pair.k, tol)
    k_adj = pair.k.adjoint()
    dual_report = verify_k_g_fusion(pair.dual, k_adj, tol=tol)
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
        coupling=coupling,
        dual_report=dual_report,
    )


@dataclass
class KGFDualPair:
    """A base system and a member-wise reconstruction dual for k.

    ``exploratory`` marks pairs built over a rank-deficient k, where the
    defect is reported rather than asserted.  ``coupling``,
    ``coupling_defect`` and ``residual`` are built from base, dual and k on
    first use; :meth:`certified` is the operator-level verdict on them.
    """

    base: GFusionSystem
    dual: GFusionSystem
    k: BoundedOperator
    exploratory: bool = False

    @cached_property
    def coupling(self) -> np.ndarray:
        """The reconstruction coupling ``frame_operator(base, dual)``; built once, read-only."""
        return _read_only(frame_operator(self.base, self.dual))

    @cached_property
    def coupling_defect(self) -> float:
        """``|coupling - k|`` in operator norm."""
        return operator_norm(self.coupling - self.k.matrix)

    @cached_property
    def residual(self) -> float:
        """The reconstruction identity's worst probe defect (:func:`_probe_residual`)."""
        return _probe_residual(self, self.coupling)

    def certified(self, tol: ToleranceProfile = DEFAULT_TOL) -> bool:
        """``|coupling - k|`` within tolerance of ``|k|``; decided once per tol."""
        return _memoized(self, ("certified", tol),
                         lambda: bool(within_scale(self.coupling_defect, self.k.norm, tol)))


def _probe_residual(pair: KGFDualPair, coupling: np.ndarray) -> float:
    """Worst |k f - coupling f| / (1 + |k f|) over the standard basis plus 50
    seeded probes, as one block."""
    k = pair.k.matrix
    complex_field = np.iscomplexobj(coupling) or np.iscomplexobj(k)
    fs = unit_probes(pair.base.dim, 50, complex_field=complex_field, seed=0xCAFE)[:, :, None]
    kf = (k @ fs)[..., 0]
    defects = row_norms(kf - (coupling @ fs)[..., 0]) / (1.0 + row_norms(kf))
    return float(defects.max())


def canonical_dual(system: GFusionSystem, k: BoundedOperator,
                   tol: ToleranceProfile = DEFAULT_TOL) -> KGFDualPair:
    """Canonical reconstruction dual through the restricted inverse.

    With X the inverse of the frame operator along ran(k) and P the projection
    onto S(ran k), the dual members are
    ``Wtilde_j = ran(k* X P pi_Wj)`` and ``Ltilde_j = Lj pi_Wj P X* k`` with
    unchanged weights.  k* X is injective on S(ran k), so Wtilde_j has the
    rank of P pi_Wj whatever the scale of X; its basis is that many leading
    left singular vectors of k* X P B_j.  For
    invertible k the reconstruction identity holds within tolerance; for
    rank-deficient k the pair is exploratory and the residual is only
    recorded.
    """
    x, p_img = restricted_inverse(system, k, tol)
    k_mat = k.matrix
    members = []
    for (sub, _), lp in zip(system.members, system.local_factors):
        pb = p_img @ sub.basis
        columns = adjoint(k_mat) @ (x @ pb)
        basis = np.linalg.svd(columns, full_matrices=False)[0][:, :numerical_rank(pb, tol)]
        local = lp @ p_img @ adjoint(x) @ k_mat
        members.append((WeightedSubspace(basis, sub.weight), LocalOperator(local)))
    dual = GFusionSystem(system.space, tuple(members))
    return KGFDualPair(system, dual, k, exploratory=not k.is_invertible(tol))


@dataclass
class KGFDualReport:
    """Operator-level verdict (``certified``) on a reconstruction dual, plus the k*-frame facts."""

    operator_residual: float
    probe_residual: float
    certified: bool
    exploratory: bool
    dual_report: FrameReport | None = None
    certified_lower: float | None = None
    certified_lower_ok: bool | None = None

    @property
    def passed(self) -> bool:
        """Exploratory (its residuals are only recorded), or certified with a
        k*-frame dual whose lower bound 1/B holds."""
        return self.exploratory or bool(self.certified and self.dual_report.is_frame
                                        and self.certified_lower_ok)


def verify_kgf_dual(pair: KGFDualPair, tol: ToleranceProfile = DEFAULT_TOL) -> KGFDualReport:
    """Operator-norm check of the reconstruction identity, and the k*-frame facts.

    ``certified`` is :meth:`KGFDualPair.certified`.  When it holds, the dual
    is additionally verified to be a frame for k* with lower bound 1/B, B the
    base optimal upper bound; this is the report ``dual --method canonical``
    renders.  :func:`identities_report` reads only the pair's verdict.
    """
    certified = pair.certified(tol)
    report = KGFDualReport(float(pair.coupling_defect), pair.residual, certified,
                           pair.exploratory)
    if certified:
        base_upper = optimal_bounds(pair.base, pair.k, tol).upper
        report.dual_report = verify_k_g_fusion(pair.dual, pair.k.adjoint(), tol=tol)
        report.certified_lower = 1.0 / base_upper
        s_dual = pair.dual.frame_matrix
        ksk = pair.k.adjoint().times_adjoint
        report.certified_lower_ok = psd_check(s_dual - report.certified_lower * ksk, tol)
    return report


def _modulus(z):
    """|z| with the bits of Python's ``abs(complex)``; ``np.abs`` can differ."""
    return np.hypot(z.real, z.imag)


def _partial_tables(system: GFusionSystem, other, groups, probes, target):
    """Products of every distinct partial operator named in ``groups`` with the probes.

    ``groups`` are boolean arrays of shape (..., members).  The distinct masks
    among them are stacked once; per distinct subset I and probe f the tables
    hold ``|S_I f|^2`` and ``<S_I f, target f>``.  Returns the stack of S_I,
    the two (distinct subsets, probes) tables, the ``target f`` rows, and per
    group the table row of each of its masks.
    """
    flat = np.concatenate([g.reshape(-1, system.size) for g in groups])
    # one bytes key per mask: np.unique(flat, axis=0) sorts rows several times
    # slower; each S_I depends only on its own mask, so the row order is free
    packed = np.packbits(flat, axis=1)
    _, first, inverse = np.unique(packed.view(f"V{packed.shape[1]}")[:, 0],
                                  return_index=True, return_inverse=True)
    distinct = flat[first]
    stack = subset_frame_operators(system, distinct, other)
    # one stacked matrix-vector product per probe keeps the bits of S_I @ f
    products = np.stack([stack @ f for f in probes], axis=1)
    target_f = np.array([target @ f for f in probes])
    rows, start = [], 0
    for g in groups:
        count = math.prod(g.shape[:-1])
        rows.append(inverse[start:start + count].reshape(g.shape[:-1]))
        start += count
    return stack, row_sq_norms(products), row_inners(products, target_f), target_f, rows


def _complement_defects(stack, rows, rows_c, k_mat):
    """|S_I + S_{I^c} - k| per subset, with the bits of :func:`operator_norm`."""
    return np.linalg.svd(stack[rows] + stack[rows_c] - k_mat, compute_uv=False).max(axis=-1)


def complement_residual(pair: KGFDualPair, index_set,
                        tol: ToleranceProfile = DEFAULT_TOL) -> float:
    """Defect of S_I + S_{I^c} = k in operator norm.

    The one-subset view of :func:`dual_subset_sweep`'s complement residual;
    unlike the sweep it does not require a certified pair.
    """
    mask = _index_mask(pair.base.size, index_set)
    stack = subset_frame_operators(pair.base, np.stack([mask, ~mask]), pair.dual)
    return float(_complement_defects(stack, 0, 1, pair.k.matrix))


@dataclass
class SubsetIdentityResult:
    """Two sides of a subset identity and their normalized disagreement.

    The scalar checks return one (subset, probe) pair; in a sweep each field
    is an array over the swept subsets (and extensions) and probes.
    """

    lhs: complex
    rhs: complex
    residual: float
    passed: bool


def _identity_entry(result: SubsetIdentityResult, index) -> SubsetIdentityResult:
    return SubsetIdentityResult(complex(result.lhs[index]), complex(result.rhs[index]),
                                float(result.residual[index]), bool(result.passed[index]))


@dataclass
class DualSubsetSweep:
    """The dual subset identity over subsets x probes, and the complement residuals.

    ``identity`` holds (subsets, probes) arrays; ``complement_residual`` is
    ``|S_I + S_{I^c} - k|`` per subset.
    """

    identity: SubsetIdentityResult
    complement_residual: np.ndarray


def dual_subset_sweep(pair: KGFDualPair, masks, probes,
                      tol: ToleranceProfile = DEFAULT_TOL) -> DualSubsetSweep:
    """Complementary-subset identity on every (subset, probe) pair at once.

    For a certified reconstruction dual,
    ``sum_{j in I} v_j^2 <Ltilde_j pi~_j f, Lj pi_j k f> - |S_I f|^2`` equals
    the conjugate-complement expression with I replaced by its complement.
    The coefficient sum over I is ``<S_I f, k f>``.  The identity needs
    S_I + S_{I^c} = k, so an uncertified pair is rejected, once per sweep.
    ``masks`` is a boolean (subsets, members) array and ``probes`` a
    (probes, dim) block; each entry carries the bits of the one-subset check.
    """
    masks = _require_masks(masks, pair.base.size)
    probes = _probe_block(probes, pair.base.dim)
    k_mat = pair.k.matrix
    if not pair.certified(tol):
        raise PreconditionError(
            f"reconstruction defect {pair.coupling_defect:g} exceeds tolerance; "
            "the subset identity needs a certified dual pair")
    stack, norms2, coeffs, _, (rows, rows_c) = _partial_tables(
        pair.base, pair.dual, (masks, ~masks), probes, k_mat)
    lhs = coeffs[rows] - norms2[rows]
    rhs = np.conj(coeffs[rows_c]) - norms2[rows_c]
    residual = _modulus(lhs - rhs)
    passed = residual <= tol.for_scale(1.0) * (1.0 + _modulus(lhs))
    return DualSubsetSweep(SubsetIdentityResult(lhs, rhs, residual, passed),
                           _complement_defects(stack, rows, rows_c, k_mat))


def check_dual_subset_identity(pair: KGFDualPair, index_set, f,
                               tol: ToleranceProfile = DEFAULT_TOL) -> SubsetIdentityResult:
    """Complementary-subset identity at one subset and one probe.

    The one-pair view of :func:`dual_subset_sweep`: an uncertified pair is
    rejected with :class:`PreconditionError`.
    """
    mask = _index_mask(pair.base.size, index_set)
    sweep = dual_subset_sweep(pair, mask[None, :], _one_probe(f, pair.base.dim), tol)
    return _identity_entry(sweep.identity, (0, 0))


def _require_parseval(system: GFusionSystem, k: BoundedOperator, tol: ToleranceProfile):
    report = verify_k_g_fusion(system, k, tol=tol)
    if not report.is_parseval:
        raise PreconditionError(
            f"system is not Parseval for k: |S - k k*| = {report.parseval_residual:g}")
    return k.times_adjoint


@dataclass
class ThreeQuartersResult:
    """Both orientations of the three-quarters bound and the attained slack.

    Scalar for one (subset, probe) pair; (subsets, probes) arrays in a sweep.
    """

    lhs: float
    rhs: float
    target: float
    symmetry_residual: float
    slack: float
    passed: bool


@dataclass
class ParsevalSubsetSweep:
    """The Parseval extension identity and the three-quarters bound, swept.

    ``identity`` holds (subsets, extensions, probes) arrays and
    ``three_quarters`` (subsets, probes) arrays.
    """

    identity: SubsetIdentityResult
    three_quarters: ThreeQuartersResult


def parseval_subset_sweep(system: GFusionSystem, k: BoundedOperator, masks,
                          extensions, probes,
                          tol: ToleranceProfile = DEFAULT_TOL) -> ParsevalSubsetSweep:
    """Parseval-side subset identities on every subset, extension and probe.

    Requires S = k k*, checked once per sweep.  ``masks`` is a boolean
    (subsets, members) array of index sets I, ``extensions`` a boolean
    (subsets, extensions, members) array of sets E inside each I^c, and
    ``probes`` a (probes, dim) block.

    * Extension identity: extending I by E shifts the difference of squared
      partial-operator norms by twice the real part of the E-indexed
      coefficient sum ``<S_E f, k k* f>``.
    * Three-quarters bound:
      ``|S_I f|^2 + Re <S_{I^c} f, k k* f> >= (3/4) |k k* f|^2``; both subset
      orientations are evaluated, they agree identically and each clears
      three quarters of ``|k k* f|^2``.

    The partial operators I, I^c, I u E, I^c - E and E are looked up in one
    stack of their distinct masks; each entry carries the bits of the
    one-subset check.
    """
    masks = _require_masks(masks, system.size)
    extensions = np.asarray(extensions)
    if (extensions.dtype != bool or extensions.ndim != 3
            or extensions.shape[0] != masks.shape[0] or extensions.shape[2] != system.size):
        raise InputError(
            f"extensions must be a boolean ({masks.shape[0]}, extensions, "
            f"{system.size}) array, got {extensions.dtype} {extensions.shape}")
    if (extensions & masks[:, None, :]).any():
        raise InputError("extension set must lie in the complement of the base index set")
    probes = _probe_block(probes, system.dim)
    kk = _require_parseval(system, k, tol)
    comp = ~masks
    _, norms2, coeffs, kkf, (rows, rows_c, grown, shrunk, ext) = _partial_tables(
        system, None,
        (masks, comp, masks[:, None, :] | extensions, comp[:, None, :] & ~extensions,
         extensions),
        probes, kk)
    coeffs = coeffs.real
    floor = tol.for_scale(1.0)

    lhs = norms2[grown] - norms2[shrunk]
    rhs = (norms2[rows] - norms2[rows_c])[:, None, :] + 2.0 * coeffs[ext]
    residual = np.abs(lhs - rhs) / (1.0 + np.abs(lhs) + np.abs(rhs))
    identity = SubsetIdentityResult(lhs, rhs, residual, residual <= floor)

    tq_lhs = norms2[rows] + coeffs[rows_c]
    tq_rhs = norms2[rows_c] + coeffs[rows]
    target = np.zeros_like(tq_lhs) + 0.75 * row_sq_norms(kkf)
    scale = 1.0 + np.abs(tq_lhs) + np.abs(tq_rhs) + target
    symmetry_residual = np.abs(tq_lhs - tq_rhs)
    slack = tq_lhs - target
    passed = (symmetry_residual <= floor * scale) & (slack >= -floor * scale)
    return ParsevalSubsetSweep(
        identity,
        ThreeQuartersResult(tq_lhs, tq_rhs, target, symmetry_residual, slack, passed))


def check_parseval_subset_identity(system: GFusionSystem, k: BoundedOperator,
                                   index_set, extension_set, f,
                                   tol: ToleranceProfile = DEFAULT_TOL) -> SubsetIdentityResult:
    """Subset-extension identity for Parseval systems at one (I, E, f).

    With S_J = k k*, extending I by a disjoint E inside its complement shifts
    the difference of squared partial-operator norms by twice the real part of
    the E-indexed coefficient sum ``<S_E f, k k* f>``.  The one-entry view of
    :func:`parseval_subset_sweep`.
    """
    mask = _index_mask(system.size, index_set)
    ext = _index_mask(system.size, extension_set)
    sweep = parseval_subset_sweep(system, k, mask[None, :], ext[None, None, :],
                                  _one_probe(f, system.dim), tol)
    return _identity_entry(sweep.identity, (0, 0, 0))


def check_three_quarters_bound(system: GFusionSystem, k: BoundedOperator,
                               index_set, f,
                               tol: ToleranceProfile = DEFAULT_TOL) -> ThreeQuartersResult:
    """Lower bound |S_I f|^2 + Re sum_{I^c} coeff >= (3/4) |k k* f|^2.

    Requires a Parseval system; the coefficient sum over I^c is
    ``<S_{I^c} f, k k* f>``.  Both subset orientations are evaluated; they
    agree identically and each clears three quarters of |k k* f|^2.  The
    one-pair view of :func:`parseval_subset_sweep`.
    """
    mask = _index_mask(system.size, index_set)
    sweep = parseval_subset_sweep(system, k, mask[None, :],
                                  np.zeros((1, 0, system.size), dtype=bool),
                                  _one_probe(f, system.dim), tol)
    tq = sweep.three_quarters
    return ThreeQuartersResult(*(float(getattr(tq, name)[0, 0]) for name in
                                 ("lhs", "rhs", "target", "symmetry_residual", "slack")),
                               bool(tq.passed[0, 0]))


def parsevalize(system: GFusionSystem, tol: ToleranceProfile = DEFAULT_TOL) -> BoundedOperator:
    """The operator k = S^(1/2), which makes the system Parseval for k."""
    w, v = hermitian_eig(system.frame_matrix, tol)
    w = np.clip(w, 0.0, None)
    root = (v * np.sqrt(w)) @ adjoint(v)
    return BoundedOperator(root)


@dataclass
class IdentitiesReport:
    """The subset identity checks of one system and target, and their verdict.

    ``checks`` maps each check that ran to its summary: the dual pair, the
    Parseval defect, and each identity's worst residual or slack with its
    verdict.  ``notes`` says why a check was skipped.
    """

    subsets_tested: int
    probes: int
    notes: list
    checks: dict
    passed: bool


def identities_report(system: GFusionSystem, k: BoundedOperator, trials: int,
                      dual: GFusionSystem | None = None, *,
                      tol: ToleranceProfile) -> IdentitiesReport:
    """Check the dual and Parseval subset identities on every swept subset.

    The subsets are the empty set plus :func:`subset_masks`, the probes the
    standard basis plus ``trials`` seeded ones.  The dual is ``dual`` when
    given, the canonical dual otherwise.  Of the dual, the report holds the
    operator-level verdict :meth:`KGFDualPair.certified` with its operator
    and probe residuals; the dual is not analysed as a k*-frame here (that
    is :func:`verify_kgf_dual`).  Its subset and complement identities
    run when it is certified and not exploratory.  The Parseval extension
    identity and the 3/4 bound run when the system is Parseval for k.  The
    report passes when the dual is exploratory or certified and every
    identity that ran holds.
    """
    probes = unit_probes(system.dim, trials,
                         complex_field=system.space.field == "complex", seed=0x1DE7)
    # the empty set, then the nonempty subsets perturb tests, in its order
    masks = np.vstack([np.zeros((1, system.size), dtype=bool), subset_masks(system.size)])
    notes, checks, passed = [], {}, False
    try:
        pair = KGFDualPair(system, dual, k) if dual is not None else canonical_dual(system, k, tol)
    except PreconditionError as exc:
        pair = None
        notes.append(f"no dual: {exc}")
    if pair is not None:
        certified = pair.certified(tol)
        source = ({"source": "document"} if dual is not None
                  else {"source": "canonical", "exploratory": bool(pair.exploratory)})
        checks["dual"] = dict(source, operator_residual=float(pair.coupling_defect),
                              probe_residual=float(pair.residual), certified=certified)
        passed = pair.exploratory or certified
    if pair is not None and pair.exploratory:
        notes.append("rank-deficient target: dual is exploratory; "
                     "subset identity checks skipped")
    elif pair is not None and certified:
        sweep = dual_subset_sweep(pair, masks, probes, tol)
        ok = bool(sweep.identity.passed.all())
        worst_complement = float(sweep.complement_residual.max())
        complement_ok = bool(within_scale(worst_complement, k.norm, tol))
        checks["dual_subset_identity"] = {
            "max_residual": float(sweep.identity.residual.max()), "passed": ok}
        checks["complement_identity"] = {"max_residual": worst_complement,
                                         "passed": complement_ok}
        passed = ok and complement_ok

    frame = verify_k_g_fusion(system, k, tol=tol)
    checks["parseval_defect"] = float(frame.parseval_residual)
    if frame.is_parseval:
        # extensions of each I: the empty set, I^c, and the first member of I^c
        comp = ~masks
        first = comp & (np.cumsum(comp, axis=1) == 1)
        extensions = np.stack([np.zeros_like(masks), comp, first], axis=1)
        sweep = parseval_subset_sweep(system, k, masks, extensions, probes, tol)
        ti_ok, tq = bool(sweep.identity.passed.all()), sweep.three_quarters
        tq_ok = bool(tq.passed.all())
        checks["parseval_subset_identity"] = {
            "max_residual": float(sweep.identity.residual.max()), "passed": ti_ok}
        checks["three_quarters_bound"] = {
            "min_slack": float(tq.slack.min()),
            "max_symmetry_residual": float(tq.symmetry_residual.max()), "passed": tq_ok}
        passed = passed and ti_ok and tq_ok
    else:
        notes.append("system is not Parseval for the target; Parseval identity "
                     "checks skipped (use --parsevalize)")
    return IdentitiesReport(int(masks.shape[0]), int(probes.shape[0]), notes, checks,
                            bool(passed))

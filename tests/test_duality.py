"""Q-duals, canonical duals, partial operators, and the identity theorems."""

import itertools

import numpy as np
import numpy.testing as npt
import pytest

from framelab import (
    BoundedOperator,
    duality,
    frame_ops,
    GFusionSystem,
    HilbertSpace,
    InputError,
    LocalOperator,
    PreconditionError,
    ToleranceProfile,
    WeightedSubspace,
    fixture,
    frame_operator,
    optimal_bounds,
    verify_k_g_fusion,
)
from framelab.documents import load_packaged_fixture, packaged_fixture_names, to_system
from framelab.duality import (
    DualConstructionError,
    KGFDualPair,
    QDualPair,
    _probe_residual,
    canonical_dual,
    construct_q_dual,
    dual_subset_sweep,
    parseval_subset_sweep,
    parsevalize,
    qdual_bound_corollary,
    verify_kgf_dual,
    verify_q_dual,
)
from framelab.frame_ops import cross_frame_check, subset_frame_operators, subset_masks
from framelab.numerics import DEFAULT_TOL, adjoint, inner, operator_norm, unit_probes
from framelab.perturbation import PerturbationParams, perturb_report
from conftest import count_calls, fix_r_names, subset_rows, thin_direction_system


def all_subsets(size):
    items = range(size)
    return [tuple(c) for r in range(size + 1)
            for c in itertools.combinations(items, r)]


def no_extensions(masks):
    """Each subset's empty list of extension sets."""
    return np.zeros((masks.shape[0], 0, masks.shape[1]), dtype=bool)


def extremal_half_weight_system():
    # two copies of the full space carrying I/sqrt(2): Parseval, and the
    # three-quarters bound is attained with equality at every unit vector
    member = (WeightedSubspace(np.eye(2), 1.0),
              LocalOperator(np.eye(2) / np.sqrt(2.0)))
    return GFusionSystem(HilbertSpace("real", 2), (member, member))


def obstructed_system():
    # the first member's local map annihilates the only direction any dual
    # reading can produce, so no q-dual of this shape exists
    e = np.eye(3)
    members = (
        (WeightedSubspace(e[:, :2], 1.0), LocalOperator(e[0:1, :])),
        (WeightedSubspace(e[:, 2:3], 1.0), LocalOperator(e[2:3, :])),
    )
    system = GFusionSystem(HilbertSpace("real", 3), members)
    return system, BoundedOperator(np.outer(e[:, 0], e[:, 1]))


def completion_of_fix_a_k(fix_a):
    normal = np.array([0.0, 1.0, -1.0]) / np.sqrt(2.0)
    return BoundedOperator(fix_a.operators["k"].matrix
                           + np.outer(np.eye(3)[:, 0], normal))


def test_q_dual_identity_fixture(fix_i):
    pair = construct_q_dual(fix_i.system, fix_i.operators["k"])
    assert pair.reading == "literal"
    assert pair.residual <= 1e-12
    assert pair.well_defined_residual <= 1e-12
    npt.assert_allclose(pair.q, np.eye(2), atol=1e-12)
    report = verify_q_dual(pair)
    assert report.passed
    assert max(report.synthesis_residual, report.adjoint_residual,
               report.bilinear_residual) <= 1e-12


def test_q_dual_fix_a_gram_reading(fix_a):
    pair = construct_q_dual(fix_a.system, fix_a.operators["k"])
    assert pair.reading == "gram"
    assert pair.residual <= 1e-12
    assert pair.well_defined_residual <= 1e-12
    assert np.linalg.norm(pair.q, 2) == pytest.approx(np.sqrt(2.0), abs=1e-12)
    report = verify_q_dual(pair)
    assert report.passed
    # the dual family is a frame for the adjoint target
    dual_check = verify_k_g_fusion(pair.dual, fix_a.operators["k"].adjoint())
    assert dual_check.is_frame


def test_q_dual_bound_corollary_equalities(fix_a):
    pair = construct_q_dual(fix_a.system, fix_a.operators["k"])
    corollary = qdual_bound_corollary(pair)
    assert corollary.q_norm == pytest.approx(np.sqrt(2.0), abs=1e-12)
    # B = 1 and |Q|^2 = 2 force the floor 1/2; the dual attains it exactly
    assert corollary.lower_floor == pytest.approx(0.5, abs=1e-12)
    assert corollary.upper_floor == pytest.approx(1.0, abs=1e-12)
    assert corollary.dual_lower == pytest.approx(0.5, abs=1e-9)
    assert corollary.dual_upper == pytest.approx(1.0, abs=1e-9)
    assert corollary.lower_ok and corollary.upper_ok


def test_q_dual_wrong_coupling_fails(fix_i):
    good = construct_q_dual(fix_i.system, fix_i.operators["k"])
    bad = QDualPair(good.base, good.dual, 2.0 * np.eye(2), good.k, reading="given")
    report = verify_q_dual(bad)
    assert not report.passed
    assert report.synthesis_residual == pytest.approx(1.0, abs=1e-12)
    assert report.adjoint_residual == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(PreconditionError):
        qdual_bound_corollary(bad)
    with pytest.raises(InputError,
                       match=r"coupling operator has shape \(2, 3\), expected \(2, 2\)"):
        QDualPair(good.base, good.dual, np.ones((2, 3)), good.k)


def test_q_dual_construction_error_reports_all_readings():
    system, k = obstructed_system()
    assert verify_k_g_fusion(system, k).is_frame
    with pytest.raises(DualConstructionError) as err:
        construct_q_dual(system, k)
    residuals = err.value.residuals
    assert set(residuals) == {"literal", "range", "gram"}
    for value in residuals.values():
        assert value == pytest.approx(1.0, abs=1e-12)


def test_q_dual_range_reading_certifies_where_the_others_do_not(monkeypatch):
    # one member on R^3: W = span(e2), L = [1, -1, -1], weight 1, k = e2 e1*
    e = np.eye(3)
    system = GFusionSystem(HilbertSpace("real", 3), (
        (WeightedSubspace(e[:, [1]], 1.0), LocalOperator(np.array([[1.0, -1.0, -1.0]]))),))
    k = BoundedOperator(np.outer(e[:, 1], e[:, 0]))
    pair = construct_q_dual(system, k)
    assert pair.reading == "range"
    assert pair.residual == 0.0
    corollary = qdual_bound_corollary(pair)
    assert corollary.passed
    assert (corollary.dual_lower, corollary.dual_upper) == pytest.approx((1.0, 1.0), abs=1e-12)
    assert corollary.q_norm == pytest.approx(1.0, abs=1e-12)
    # certifying nothing, the construction reports every reading's residual
    monkeypatch.setattr(duality, "within_scale", lambda *args: False)
    with pytest.raises(DualConstructionError) as err:
        construct_q_dual(system, k)
    residuals = err.value.residuals
    assert residuals["range"] == 0.0
    assert residuals["literal"] == pytest.approx(1.0, abs=1e-12)
    assert residuals["gram"] == pytest.approx(1.0, abs=1e-12)


def test_q_dual_on_random_fixtures():
    for name in fix_r_names()[:5]:
        bundle = fixture(name)
        k = bundle.operators["k"]
        pair = construct_q_dual(bundle.system, k)
        assert pair.residual <= 1e-9 * max(1.0, k.norm)
        report = verify_q_dual(pair)
        assert report.passed
        corollary = qdual_bound_corollary(pair)
        assert corollary.lower_ok and corollary.upper_ok


def test_canonical_dual_identity_fixture_is_self_dual(fix_i):
    pair = canonical_dual(fix_i.system, fix_i.operators["k"])
    assert not pair.exploratory
    report = verify_kgf_dual(pair)
    assert report.passed
    assert report.operator_residual <= 1e-12
    assert report.probe_residual <= 1e-12
    assert report.certified_lower == pytest.approx(1.0, abs=1e-9)
    assert report.certified_lower_ok
    npt.assert_allclose(frame_operator(pair.dual), np.eye(2), atol=1e-12)


def test_canonical_dual_invertible_completion(fix_a):
    k = completion_of_fix_a_k(fix_a)
    assert k.is_invertible()
    npt.assert_allclose(np.sort(k.singular_values),
                        [1.0, 1.0, np.sqrt(2.0)], atol=1e-12)
    pair = canonical_dual(fix_a.system, k)
    assert not pair.exploratory
    report = verify_kgf_dual(pair)
    assert report.passed and report.certified_lower_ok
    assert report.operator_residual <= 1e-9
    assert report.probe_residual <= 1e-9


def test_canonical_dual_rank_deficient_is_exploratory(fix_a):
    pair = canonical_dual(fix_a.system, fix_a.operators["k"])
    assert pair.exploratory
    report = verify_kgf_dual(pair)
    assert report.exploratory
    # the defining identity happens to hold here even though k is singular;
    # the flag records that no general guarantee was used
    assert report.operator_residual <= 1e-12
    assert report.probe_residual <= 1e-12


def test_canonical_dual_probe_oracle_agreement(fix_a):
    # independent residual estimate: raw per-probe defect of the
    # reconstruction identity, computed without the pair helpers
    k = completion_of_fix_a_k(fix_a)
    pair = canonical_dual(fix_a.system, k)
    k_mat = k.matrix
    probes = unit_probes(3, 40, seed=0x0B5)
    worst = 0.0
    for f in probes:
        kf = k_mat @ f
        total = np.zeros(3)
        for (sub, op), (dsub, dop) in zip(pair.base.members, pair.dual.members):
            proj = sub.basis @ sub.basis.conj().T
            dproj = dsub.basis @ dsub.basis.conj().T
            coeff = dop.matrix @ (dproj @ f)
            total = total + sub.weight**2 * (proj @ (op.matrix.conj().T @ coeff))
        worst = max(worst, np.linalg.norm(total - kf) / (1.0 + np.linalg.norm(kf)))
    assert worst <= 1e-10


def test_partial_operators_split_the_target(fix_i):
    pair = canonical_dual(fix_i.system, fix_i.operators["k"])
    first, both, none = subset_frame_operators(
        pair.base, np.array([[True, False], [True, True], [False, False]]), pair.dual)
    npt.assert_allclose(first, np.diag([1.0, 0.0]), atol=1e-12)
    npt.assert_allclose(both, np.eye(2), atol=1e-12)
    npt.assert_allclose(none, np.zeros((2, 2)), atol=0.0)
    masks = subset_rows(pair.base.size, all_subsets(pair.base.size))
    splits = (subset_frame_operators(pair.base, masks, pair.dual)
              + subset_frame_operators(pair.base, ~masks, pair.dual))
    assert all(operator_norm(split - pair.k.matrix) <= 1e-12 for split in splits)


def test_subset_identity_hand_value(fix_i):
    pair = canonical_dual(fix_i.system, fix_i.operators["k"])
    result = dual_subset_sweep(pair, subset_rows(2, [(0,)]), [[1.0, 2.0]])
    assert result.passed[0, 0]
    assert result.lhs[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert result.rhs[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_subset_identity_exhaustive(fix_a):
    k = completion_of_fix_a_k(fix_a)
    pair = canonical_dual(fix_a.system, k)
    probes = unit_probes(3, 20, seed=0x791)
    masks = subset_rows(pair.base.size, all_subsets(pair.base.size))
    result = dual_subset_sweep(pair, masks, probes)
    assert result.passed.all()
    assert (result.residual <= 1e-9).all()


def test_subset_identity_requires_certified_pair(fix_i):
    double = fix_i.system.with_local_operators(
        [2.0 * op.matrix for _, op in fix_i.system.members])
    broken = KGFDualPair(fix_i.system, double, fix_i.operators["k"])
    with pytest.raises(PreconditionError):
        dual_subset_sweep(broken, subset_rows(2, [(0,)]), [[1.0, 0.0]])


def rotated_complex_copy(system, phase):
    """The system's members over the complex space of its dimension, each local
    operator times exp(i phase)."""
    return GFusionSystem(HilbertSpace("complex", system.dim), tuple(
        (WeightedSubspace(sub.basis.astype(complex), sub.weight),
         LocalOperator(np.exp(1j * phase) * op.matrix)) for sub, op in system.members))


@pytest.mark.parametrize("phase", [0.0, 0.3])
def test_dual_pairs_refuse_a_dual_over_another_space(fix_i, phase):
    base, k = fix_i.system, fix_i.operators["k"]
    dual = rotated_complex_copy(base, phase)
    with pytest.raises(InputError, match="share its base's space"):
        KGFDualPair(base, dual, k)
    with pytest.raises(InputError, match="share its base's space"):
        QDualPair(base, dual, np.eye(dual.synthesis_matrix.shape[1]), k)
    # a complex base accepts the dual, and refuses a real one
    assert KGFDualPair(dual, dual, BoundedOperator(k.matrix.astype(complex))).dual is dual
    with pytest.raises(InputError, match="share its base's space"):
        KGFDualPair(dual, base, BoundedOperator(k.matrix.astype(complex)))


PAIRING_CALLS = {
    "frame_operator": lambda real, cplx, k: frame_operator(real, cplx),
    "subset_frame_operators": lambda real, cplx, k: subset_frame_operators(
        real, subset_masks(real.size), cplx),
    "cross_frame_check": lambda real, cplx, k: cross_frame_check(real, cplx, k),
    "cross_frame_check_swapped": lambda real, cplx, k: cross_frame_check(cplx, real, k),
    "perturb_report": lambda real, cplx, k: perturb_report(
        real, cplx, k, PerturbationParams(), tol=DEFAULT_TOL),
}


@pytest.mark.parametrize("call", PAIRING_CALLS.values(), ids=PAIRING_CALLS.keys())
def test_two_system_entry_points_refuse_an_operand_over_another_space(fix_i, call):
    base, k = fix_i.system, fix_i.operators["k"]
    with pytest.raises(InputError, match="share its base's space"):
        call(base, rotated_complex_copy(base, 0.3), k)


def test_dual_pairs_refuse_a_k_over_another_space(fix_i):
    complex_k = BoundedOperator(1j * fix_i.operators["k"].matrix)
    with pytest.raises(InputError, match="complex operator on a system over a real"):
        KGFDualPair(fix_i.system, fix_i.system, complex_k)


def test_parseval_subset_identity_values(fix_i):
    k = fix_i.operators["k"]
    f = [[1.0, 2.0]]
    # at I = {0}: the empty extension, then E = {1}
    masks = subset_rows(2, [(0,)])
    result = parseval_subset_sweep(fix_i.system, k, masks,
                                   subset_rows(2, [(), (1,)])[None], f).identity
    assert result.passed.all()
    assert result.lhs[0, 0, 0] == pytest.approx(-3.0, abs=1e-12)
    assert result.rhs[0, 0, 0] == pytest.approx(-3.0, abs=1e-12)
    assert result.lhs[0, 1, 0] == pytest.approx(5.0, abs=1e-12)
    with pytest.raises(InputError):  # an extension inside I
        parseval_subset_sweep(fix_i.system, k, masks, masks[None], f)
    with pytest.raises(InputError, match=r"extensions must be a boolean \(1, extensions, 2\)"):
        parseval_subset_sweep(fix_i.system, k, masks, subset_rows(2, [(1,)]), f)


def test_parseval_subset_identity_exhaustive(fix_i):
    k = fix_i.operators["k"]
    size = fix_i.system.size
    probes = unit_probes(2, 20, seed=0x7E1)
    index_sets = all_subsets(size)
    masks = subset_rows(size, index_sets)
    # the extensions of each I: the empty set, I^c and the first member of I^c
    firsts = [tuple(sorted(set(range(size)) - set(i)))[:1] for i in index_sets]
    extensions = np.stack([np.zeros_like(masks), ~masks, subset_rows(size, firsts)], axis=1)
    result = parseval_subset_sweep(fix_i.system, k, masks, extensions, probes).identity
    assert result.passed.all()
    assert (result.residual <= 1e-9).all()


def test_parseval_identity_rejects_non_parseval(fix_a):
    masks = subset_rows(fix_a.system.size, [(0,)])
    with pytest.raises(PreconditionError):
        parseval_subset_sweep(fix_a.system, fix_a.operators["k"], masks,
                              no_extensions(masks), [[1.0, 0.0, 0.0]])


def test_three_quarters_bound_plain_fixture(fix_i):
    k = fix_i.operators["k"]
    masks = subset_rows(2, [(0,)])
    result = parseval_subset_sweep(fix_i.system, k, masks, no_extensions(masks),
                                   [[1.0, 0.0]]).three_quarters
    assert result.passed[0, 0]
    assert result.lhs[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert result.target[0, 0] == pytest.approx(0.75, abs=1e-12)
    assert result.slack[0, 0] == pytest.approx(0.25, abs=1e-12)
    assert result.symmetry_residual[0, 0] <= 1e-12
    probes = unit_probes(2, 20, seed=0x3F4)
    masks = subset_rows(fix_i.system.size, all_subsets(fix_i.system.size))
    check = parseval_subset_sweep(fix_i.system, k, masks, no_extensions(masks),
                                  probes).three_quarters
    assert check.passed.all()
    assert (check.slack >= -1e-9).all()


def test_three_quarters_bound_attained_by_extremal_system():
    system = extremal_half_weight_system()
    k = BoundedOperator.identity(2)
    assert verify_k_g_fusion(system, k).is_parseval
    masks = subset_rows(2, [(0,)])
    result = parseval_subset_sweep(system, k, masks, no_extensions(masks),
                                   [[1.0, 0.0], [0.6, 0.8]]).three_quarters
    assert result.passed.all()
    for slack, lhs in zip(result.slack[0], result.lhs[0]):
        assert slack == pytest.approx(0.0, abs=1e-9)
        assert lhs == pytest.approx(0.75, abs=1e-9)


def test_parsevalize_square_root_generator(fix_a):
    root = parsevalize(fix_a.system)
    npt.assert_allclose(root.matrix @ root.matrix.conj().T,
                        frame_operator(fix_a.system), atol=1e-10)
    report = verify_k_g_fusion(fix_a.system, root)
    assert report.is_parseval
    for name in fix_r_names()[:3]:
        bundle = fixture(name)
        root = parsevalize(bundle.system)
        assert verify_k_g_fusion(bundle.system, root).is_parseval


def test_canonical_dual_on_random_fixtures():
    for name in fix_r_names()[:5]:
        bundle = fixture(name)
        pair = canonical_dual(bundle.system, bundle.operators["k"])
        assert not pair.exploratory
        report = verify_kgf_dual(pair)
        assert report.passed and report.certified_lower_ok
        assert report.operator_residual <= 1e-9
        base_upper = optimal_bounds(bundle.system, bundle.operators["k"]).upper
        assert report.certified_lower == pytest.approx(1.0 / base_upper, rel=1e-9)


@pytest.mark.parametrize("eps", [1e-5, 1e-8])
def test_canonical_dual_keeps_every_direction_of_a_certified_k_frame(eps):
    # X = diag(1, eps^-2), so k* X P pi_W = X: a rank cut relative to |X| drops e2
    system, k = thin_direction_system(eps), BoundedOperator.identity(2)
    pair = canonical_dual(system, k)
    assert pair.dual.members[0][0].subspace_dim == 2
    report = verify_kgf_dual(pair)
    assert report.passed and report.certified_lower_ok
    assert report.operator_residual <= 1e-12


# -- the dual-side probe blocks against the one-probe loops -------------------


def reference_probe_residual(pair, coupling, probes=50):
    """The reconstruction probe residual, one probe at a time."""
    k = pair.k.matrix
    complex_field = np.iscomplexobj(coupling) or np.iscomplexobj(k)
    worst = 0.0
    for f in unit_probes(pair.base.dim, probes, complex_field=complex_field, seed=0xCAFE):
        kf = k @ f
        defect = float(np.linalg.norm(kf - coupling @ f)) / (1.0 + float(np.linalg.norm(kf)))
        worst = max(worst, defect)
    return worst


def reference_bilinear_residual(pair, probes=25):
    """The bilinear coupling residual, one probe pair at a time."""
    t_base = pair.base.synthesis_matrix
    t_dual = pair.dual.synthesis_matrix
    q, k = pair.q, pair.k.matrix
    complex_field = any(np.iscomplexobj(m) for m in (t_base, t_dual, q, k))
    fs = unit_probes(pair.base.dim, probes, complex_field=complex_field, seed=0xD0A)
    gs = unit_probes(pair.base.dim, probes, complex_field=complex_field, seed=0xD0B)
    worst = 0.0
    for f, g in zip(fs, gs):
        lhs = inner(k @ f, g)
        rhs = inner(adjoint(q) @ (adjoint(t_dual) @ f), adjoint(t_base) @ g)
        worst = max(worst, abs(lhs - rhs))
    return worst


def seeded_coupling(pair, seed=7):
    """A coupling of the pair's shape that certifies nothing."""
    rng = np.random.Generator(np.random.PCG64(seed))
    q = rng.standard_normal(pair.q.shape)
    if np.iscomplexobj(pair.q):
        q = q + 1j * rng.standard_normal(pair.q.shape)
    return QDualPair(pair.base, pair.dual, q, pair.k)


@pytest.mark.parametrize("name", packaged_fixture_names())
def test_probe_residual_block_matches_the_probe_loop(name):
    system, operators = to_system(load_packaged_fixture(name))
    pair = canonical_dual(system, operators["k"])
    for other in (pair.dual, system):
        coupling = frame_operator(system, other)
        assert _probe_residual(pair, coupling) == reference_probe_residual(pair, coupling)
    assert pair.residual == reference_probe_residual(pair, frame_operator(system, pair.dual))
    assert verify_kgf_dual(pair).probe_residual == pair.residual


def test_probe_residual_reports_a_nan_coupling(fix_i):
    pair = canonical_dual(fix_i.system, fix_i.operators["k"])
    coupling = np.array(pair.coupling)
    coupling[0, 1] = np.nan
    assert np.isnan(_probe_residual(pair, coupling))


@pytest.mark.parametrize("name", packaged_fixture_names())
def test_bilinear_residual_block_matches_the_probe_loop(name):
    system, operators = to_system(load_packaged_fixture(name))
    built = construct_q_dual(system, operators["k"])
    for pair in (built, seeded_coupling(built)):
        assert verify_q_dual(pair).bilinear_residual == reference_bilinear_residual(pair)


@pytest.mark.parametrize("name", packaged_fixture_names())
def test_a_q_dual_pair_measures_its_own_synthesis_residual(name):
    system, operators = to_system(load_packaged_fixture(name))
    built = construct_q_dual(system, operators["k"])
    for pair in (built, seeded_coupling(built)):
        defect = (pair.base.synthesis_matrix @ adjoint(pair.q)
                  @ adjoint(pair.dual.synthesis_matrix) - pair.k.matrix)
        assert pair.residual == pytest.approx(np.linalg.norm(defect, 2), rel=1e-12, abs=1e-15)
        assert pair.residual == verify_q_dual(pair).synthesis_residual


def test_q_dual_forms_run_once_per_pair_and_tolerance(monkeypatch):
    bundle = fixture("FIX-A")
    pair = construct_q_dual(bundle.system, bundle.operators["k"])
    checked = count_calls(monkeypatch, duality, "_q_dual_forms")
    analyzed = count_calls(monkeypatch, frame_ops, "_analyze")
    same = qdual_bound_corollary(pair)
    assert checked == [] and same.coupling is verify_q_dual(pair)
    # the base was analysed, and so certified, when the pair was built
    assert [id(args[0]) for args in analyzed] == [id(pair.dual)]
    other = qdual_bound_corollary(pair, ToleranceProfile(tau_abs=1e-9, tau_rel=1e-8))
    assert [id(args[0]) for args in checked] == [id(pair)] and other.coupling == same.coupling
    assert (other.dual_lower, other.dual_upper) == (same.dual_lower, same.dual_upper)


def test_kgf_dual_certifies_the_base_once_per_tolerance(monkeypatch):
    bundle = fixture("FIX-R003")
    pair = canonical_dual(bundle.system, bundle.operators["k"])
    analyzed = count_calls(monkeypatch, frame_ops, "_analyze")
    same = verify_kgf_dual(pair)
    assert [id(args[0]) for args in analyzed] == [id(pair.dual)]
    other = verify_kgf_dual(pair, ToleranceProfile(tau_abs=1e-9, tau_rel=1e-8))
    assert [id(args[0]) for args in analyzed] == [id(pair.dual), id(bundle.system), id(pair.dual)]
    assert same.passed and other.passed
    assert same.certified_lower == other.certified_lower == \
        1.0 / optimal_bounds(bundle.system, bundle.operators["k"]).upper


def test_kgf_dual_analyses_the_dual_once_per_pair(monkeypatch):
    bundle = fixture("FIX-R003")
    pair = canonical_dual(bundle.system, bundle.operators["k"])
    analyzed = count_calls(monkeypatch, frame_ops, "_analyze")
    first, second = verify_kgf_dual(pair), verify_kgf_dual(pair)
    assert [id(args[0]) for args in analyzed] == [id(pair.dual)]
    assert pair.k.adjoint() is pair.k.adjoint()
    assert first.dual_report is second.dual_report


def test_kgf_dual_pair_decides_its_verdict_once_per_tolerance(monkeypatch):
    bundle = fixture("FIX-R003")
    pair = canonical_dual(bundle.system, bundle.operators["k"])
    decided, real = [], duality.within_scale

    def deciding(*args):
        decided.append(args)
        return real(*args)

    # duality's own verdicts only: the dual's k*-analysis decides in frame_ops
    monkeypatch.setattr(duality, "within_scale", deciding)
    report = verify_kgf_dual(pair)
    duality.dual_subset_sweep(pair, frame_ops.subset_masks(pair.base.size),
                              unit_probes(pair.base.dim, 2))
    assert report.certified and len(decided) == 1
    assert pair.certified(ToleranceProfile(tau_abs=1e-9, tau_rel=1e-8))
    assert len(decided) == 2


def test_cached_operators_are_read_only():
    bundle = fixture("FIX-R003")
    system, k = bundle.system, bundle.operators["k"]
    pair = canonical_dual(system, k)
    assert np.array_equal(system.frame_matrix, frame_operator(system))
    assert np.array_equal(pair.coupling, frame_operator(system, pair.dual))
    for cached in (system.frame_matrix, system.synthesis_matrix, k.times_adjoint,
                   k.adjoint().matrix, pair.coupling):
        with pytest.raises(ValueError):
            cached[0, 0] = 0.0

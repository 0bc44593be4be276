"""The batched subset x probe kernels against member-by-member references.

The sweeps in ``duality`` evaluate every (subset, probe) pair at once.  Each
entry must carry the bits of the one-subset loop it replaces: S_I summed
member by member in ascending j, ``S_I @ f`` per probe, ``np.linalg.norm``
squared with Python's ``**`` and ``numerics.inner``.  A scalar view, a sweep
over one subset (and extension) and one probe, must return the same entry.
"""

import numpy as np
import pytest

from framelab import DEFAULT_TOL, BoundedOperator, InputError, PreconditionError, fixture
from framelab.documents import (
    FrameDocument,
    load_document,
    load_packaged_fixture,
    packaged_fixture_names,
    to_system,
)
from framelab.duality import (
    KGFDualPair,
    canonical_dual,
    dual_subset_sweep,
    identities_report,
    parseval_subset_sweep,
    parsevalize,
    verify_kgf_dual,
)
from framelab.frame_ops import (
    frame_operator,
    reconstruction_check,
    subset_frame_operators,
    subset_masks,
)
from framelab.numerics import adjoint, inner, operator_norm, rounding_bound, unit_probes
from framelab.oracle import reference_frame_operator
from conftest import DATA_DIR


def thirteen_member_document():
    # 13 members: the walk samples 512 nonempty subsets, so I u {c} and
    # I^c - {c} are mostly outside it
    size = 13
    angles = np.pi * np.arange(size) / size
    return FrameDocument(
        field="real", dim=2, weights=[1.0 + 0.1 * j for j in range(size)],
        subspaces=[[[1.0, 0.0], [0.0, 1.0]]] * size,
        local_operators=[[[float(np.cos(a)), float(np.sin(a))]] for a in angles],
        operators={"k": [[1.0, 0.0], [0.0, 1.0]]})


def case_document(name):
    if name == "thirteen":
        return thirteen_member_document()
    return load_packaged_fixture(name)


CASES = packaged_fixture_names() + ["thirteen"]


def walked_masks(size):
    """The subsets ``framelab identities`` walks: the empty set, then the rest."""
    return np.vstack([np.zeros((1, size), dtype=bool), subset_masks(size)])


def cli_extensions(masks):
    """Per subset I: I^c and the first member of I^c."""
    comp = ~masks
    first = comp & (np.cumsum(comp, axis=1) == 1)
    return np.stack([comp, first], axis=1)


def members(mask):
    return tuple(int(j) for j in np.flatnonzero(mask))


def dual_view(pair, mask, f):
    """The dual sweep's scalar view: its identity at one subset and one probe."""
    return dual_subset_sweep(pair, mask[None], [f])


def parseval_view(system, k, mask, ext, f):
    """The Parseval sweep's extension identity at one subset, extension and probe."""
    return parseval_subset_sweep(system, k, mask[None], ext[None, None], [f]).identity


def three_quarters_view(system, k, mask, f):
    """The Parseval sweep's three-quarters bound at one subset and one probe."""
    return parseval_subset_sweep(system, k, mask[None], np.zeros((1, 0, system.size), bool),
                                 [f]).three_quarters


def partial_reference(system, other, subset):
    """S_I summed member by member in ascending j."""
    other = system if other is None else other
    dtype = np.result_type(system.space.dtype, *system.local_factors, *other.local_factors)
    s = np.zeros((system.dim, system.dim), dtype=dtype)
    for j in sorted(subset):
        weight = system.members[j][0].weight
        s = s + (weight**2) * (adjoint(system.local_factors[j]) @ other.local_factors[j])
    return s


def sq(v):
    return float(np.linalg.norm(v))**2


def assert_same(sweep_value, reference, context):
    """Bit-equal, the same number up to the sign of a zero imaginary part."""
    assert complex(sweep_value) == complex(reference), context


def check_dual_entries(pair, masks, probes):
    result = dual_subset_sweep(pair, masks, probes)
    size = pair.base.size
    kf = [pair.k.matrix @ f for f in probes]
    for i, mask in enumerate(masks):
        subset = members(mask)
        s_i = partial_reference(pair.base, pair.dual, subset)
        s_c = partial_reference(pair.base, pair.dual, set(range(size)) - set(subset))
        for p, f in enumerate(probes):
            s_i_f, s_c_f = s_i @ f, s_c @ f
            lhs = inner(s_i_f, kf[p]) - sq(s_i_f)
            rhs = np.conj(inner(s_c_f, kf[p])) - sq(s_c_f)
            context = (subset, p)
            assert_same(result.lhs[i, p], lhs, context)
            assert_same(result.rhs[i, p], rhs, context)
            assert result.residual[i, p] == abs(lhs - rhs), context
            view = dual_view(pair, mask, f)
            assert (view.lhs[0, 0], view.rhs[0, 0], view.residual[0, 0], view.passed[0, 0]) == (
                result.lhs[i, p], result.rhs[i, p], result.residual[i, p],
                result.passed[i, p]), context


def check_parseval_entries(system, k, masks, probes):
    extensions = cli_extensions(masks)
    sweep = parseval_subset_sweep(system, k, masks, extensions, probes)
    tq = sweep.three_quarters
    size = system.size
    kk = k.matrix @ adjoint(k.matrix)
    kkf = [kk @ f for f in probes]
    for i, mask in enumerate(masks):
        subset = members(mask)
        comp = set(range(size)) - set(subset)
        s_i = partial_reference(system, None, subset)
        s_c = partial_reference(system, None, comp)
        for p, f in enumerate(probes):
            s_i_f, s_c_f = s_i @ f, s_c @ f
            lhs = sq(s_i_f) + inner(s_c_f, kkf[p]).real
            rhs = sq(s_c_f) + inner(s_i_f, kkf[p]).real
            target = 0.75 * sq(kkf[p])
            context = (subset, p)
            assert tq.lhs[i, p] == lhs, context
            assert tq.rhs[i, p] == rhs, context
            assert tq.target[i, p] == target, context
            assert tq.symmetry_residual[i, p] == abs(lhs - rhs), context
            assert tq.slack[i, p] == lhs - target, context
            view = three_quarters_view(system, k, mask, f)
            assert tuple(getattr(view, name)[0, 0] for name in (
                "lhs", "rhs", "target", "symmetry_residual", "slack", "passed")) == (
                tq.lhs[i, p], tq.rhs[i, p], tq.target[i, p],
                tq.symmetry_residual[i, p], tq.slack[i, p], tq.passed[i, p]), context
        for e, ext_mask in enumerate(extensions[i]):
            ext = members(ext_mask)
            s_grown = partial_reference(system, None, set(subset) | set(ext))
            s_shrunk = partial_reference(system, None, comp - set(ext))
            s_e = partial_reference(system, None, ext)
            for p, f in enumerate(probes):
                lhs = sq(s_grown @ f) - sq(s_shrunk @ f)
                rhs = sq(s_i @ f) - sq(s_c @ f) + 2.0 * inner(s_e @ f, kkf[p]).real
                entry = (i, e, p)
                context = (subset, ext, p)
                assert sweep.identity.lhs[entry] == lhs, context
                assert sweep.identity.rhs[entry] == rhs, context
                assert sweep.identity.residual[entry] == (
                    abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))), context
                view = parseval_view(system, k, mask, ext_mask, f)
                assert tuple(getattr(view, name)[0, 0, 0] for name in (
                    "lhs", "rhs", "residual", "passed")) == tuple(
                    getattr(sweep.identity, name)[entry] for name in (
                        "lhs", "rhs", "residual", "passed")), context


@pytest.mark.parametrize("name", CASES)
def test_sweeps_match_member_by_member_reference_and_scalar_views(name):
    system, operators = to_system(case_document(name))
    masks = walked_masks(system.size)
    # the 13-member sweep is the slowest: the standard basis and the Parseval
    # side, whose extension subsets fall outside the walk, suffice there
    probes = unit_probes(system.dim, 0 if name == "thirteen" else 1,
                         complex_field=system.space.field == "complex", seed=0x5EE9)
    root = parsevalize(system)
    targets = () if name == "thirteen" else (operators["k"], root)
    for k in targets:
        pair = canonical_dual(system, k)
        if not pair.exploratory and verify_kgf_dual(pair).certified:
            check_dual_entries(pair, masks, probes)
    check_parseval_entries(system, root, masks, probes)
    if name == "FIX-I":
        check_parseval_entries(system, operators["k"], masks, probes)


@pytest.mark.parametrize("name", packaged_fixture_names() + ["desk_reference"])
def test_the_complement_identity_is_the_coupling_defect_at_every_subset(name):
    """``identities`` reports S_I + S_{I^c} = k as the coupling defect |C - k|, and
    every subset's split sum |S_I + S_{I^c} - k| is that defect up to rounding.

    The member terms G_j are formed once, and every sum adds them to zero in
    ascending j, so its first addition is exact.  In C - k each term takes at most
    m roundings (m - 1 in C, one in the subtraction); in S_I + S_{I^c} - k at most
    m + 1 (m - 1 in its partial sum, one in the addition, one in the
    subtraction).  Both are sum_j G_j - k up to those roundings, so with
    M = sum_j |G_j| + |k| entrywise, the two computed matrices differ entrywise by
    at most (gamma_m + gamma_(m+1)) M <= gamma_(2m+1) M (Higham, ch. 3), and in
    spectral norm by at most gamma_(2m+1) |M|_2, since a matrix's norm is at most
    its entrywise modulus's.  Each norm is the SVD's largest singular value, the
    exact one of a matrix within about n u of it relative to its norm (backward
    stability); gamma_n times the two norms covers that.
    """
    if name == "desk_reference":
        system, operators = to_system(load_document(DATA_DIR / "cli" / "desk_reference.json"))
    else:
        system, operators = to_system(load_packaged_fixture(name))
    masks, m = walked_masks(system.size), system.size
    reported = 0
    for k in (operators["k"], parsevalize(system)):
        checks = identities_report(system, k, 2, tol=DEFAULT_TOL).checks
        if "complement_identity" not in checks:  # exploratory: no subset check ran
            continue
        reported += 1
        defect = checks["complement_identity"]["max_residual"]
        assert defect.hex() == checks["dual"]["operator_residual"].hex()
        pair, k_mat = canonical_dual(system, k), k.matrix
        terms = subset_frame_operators(system, np.eye(m, dtype=bool), pair.dual)
        magnitude = operator_norm(np.abs(terms).sum(axis=0) + np.abs(k_mat))
        splits = np.array([operator_norm(s_i + s_c - k_mat) for s_i, s_c in zip(
            subset_frame_operators(system, masks, pair.dual),
            subset_frame_operators(system, ~masks, pair.dual))])
        allowance = (rounding_bound(2 * m + 1, magnitude)
                     + rounding_bound(system.dim, splits + defect))
        assert (np.abs(splits - defect) <= allowance).all()
    assert reported


@pytest.mark.parametrize("name, parsevalized", [("FIX-I", False), ("FIX-R000", False),
                                                 ("FIX-A", True)])
def test_the_identities_report_is_the_worst_of_the_scalar_checks(name, parsevalized):
    system, operators = to_system(load_packaged_fixture(name))
    k = parsevalize(system) if parsevalized else operators["k"]
    report = identities_report(system, k, 5, tol=DEFAULT_TOL)
    masks = walked_masks(system.size)
    probes = unit_probes(system.dim, 5, complex_field=system.space.field == "complex",
                         seed=0x1DE7)
    assert (report.subsets_tested, report.probes) == (len(masks), len(probes))
    pair = canonical_dual(system, k)
    assert report.checks["dual_subset_identity"]["max_residual"] == max(
        dual_view(pair, mask, f).residual[0, 0] for mask in masks for f in probes)
    # FIX-R000 is not Parseval for its k, so the report skips that branch
    assert ("three_quarters_bound" in report.checks) == (name != "FIX-R000")
    if name == "FIX-R000":
        return
    assert report.checks["parseval_subset_identity"]["max_residual"] == max(
        parseval_view(system, k, mask, ext, f).residual[0, 0, 0]
        for mask, exts in zip(masks, cli_extensions(masks)) for ext in exts for f in probes)
    assert report.checks["three_quarters_bound"]["min_slack"] == min(
        three_quarters_view(system, k, mask, f).slack[0, 0] for mask in masks for f in probes)


def test_subset_stack_matches_oracle_member_sums():
    for name in CASES:
        doc = case_document(name)
        system, _ = to_system(doc)
        terms = [reference_frame_operator(FrameDocument(
            field=doc.field, dim=doc.dim, weights=[doc.weights[j]],
            subspaces=[doc.subspaces[j]], local_operators=[doc.local_operators[j]],
            operators={})) for j in range(system.size)]
        masks = walked_masks(system.size)
        stack = subset_frame_operators(system, masks)
        scale = np.linalg.norm(frame_operator(system), 2)
        for mask, s_i in zip(masks, stack):
            reference = sum((terms[j] for j in np.flatnonzero(mask)),
                            np.zeros_like(terms[0]))
            assert np.linalg.norm(s_i - reference, 2) <= 1e-12 * scale, (name, members(mask))


def test_frame_operator_is_the_one_row_view_of_the_stack():
    system = fixture("FIX-R011").system
    masks = walked_masks(system.size)
    stack = subset_frame_operators(system, masks)
    for mask, s_i in zip(masks, stack):
        assert np.array_equal(frame_operator(system, index_set=members(mask)), s_i)


FIRST, SECOND = np.eye(2, dtype=bool)


@pytest.mark.parametrize("view, bad", [
    (lambda system, k, f: dual_view(canonical_dual(system, k), FIRST, f), np.nan),
    (lambda system, k, f: parseval_view(system, k, FIRST, SECOND, f), np.nan),
    (lambda system, k, f: three_quarters_view(system, k, FIRST, f), np.inf),
], ids=["dual", "parseval", "three-quarters"])
def test_scalar_views_reject_a_non_finite_probe(view, bad):
    bundle = fixture("FIX-I")
    with pytest.raises(InputError, match="non-finite"):
        view(bundle.system, bundle.operators["k"], [bad, 0.0])


@pytest.mark.parametrize("probe", [[[1.0, 0.0], [1.0]], [[1.0], [0.0, 1.0]], [[1.0], [0.0]]],
                         ids=["ragged", "ragged-column", "column"])
@pytest.mark.parametrize("view", [
    reconstruction_check,
    lambda system, k, f: dual_view(canonical_dual(system, k), FIRST, f),
], ids=["reconstruction", "dual"])
def test_one_probe_views_reject_a_probe_that_is_not_a_vector(view, probe):
    bundle = fixture("FIX-I")
    with pytest.raises(InputError, match="probe vector"):
        view(bundle.system, bundle.operators["k"], probe)


def test_sweep_inputs_are_validated():
    bundle = fixture("FIX-I")
    system, k = bundle.system, bundle.operators["k"]
    pair = canonical_dual(system, k)
    probes = np.eye(2)
    masks = walked_masks(2)
    with pytest.raises(InputError):
        subset_frame_operators(system, masks.astype(int))
    with pytest.raises(InputError):
        dual_subset_sweep(pair, masks[:, :1], probes)
    with pytest.raises(InputError):
        dual_subset_sweep(pair, masks, np.eye(3))
    with pytest.raises(InputError):
        dual_subset_sweep(pair, masks, np.zeros((0, 2)))
    overlapping = cli_extensions(masks)
    overlapping[-1, 0] = masks[-1]
    with pytest.raises(InputError):
        parseval_subset_sweep(system, k, masks, overlapping, probes)
    broken = KGFDualPair(system, system.with_local_operators(
        [2.0 * op.matrix for _, op in system.members]), k)
    with pytest.raises(PreconditionError):
        dual_subset_sweep(broken, masks, probes)
    with pytest.raises(PreconditionError):
        parseval_subset_sweep(system, BoundedOperator(2.0 * k.matrix), masks,
                              cli_extensions(masks), probes)

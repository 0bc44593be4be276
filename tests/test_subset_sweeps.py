"""The batched subset x probe kernels against member-by-member references.

The sweeps in ``duality`` evaluate every (subset, probe) pair at once.  Each
entry must carry the bits of the one-subset loop it replaces: S_I summed
member by member in ascending j, ``S_I @ f`` per probe, ``np.linalg.norm``
squared with Python's ``**`` and ``numerics.inner``.  The scalar checks are
one-entry views of the sweeps and must return the same entries.
"""

import numpy as np
import pytest

from framelab import BoundedOperator, InputError, PreconditionError, fixture
from framelab.documents import (
    FrameDocument,
    load_packaged_fixture,
    packaged_fixture_names,
    to_system,
)
from framelab.duality import (
    KGFDualPair,
    canonical_dual,
    check_dual_subset_identity,
    check_parseval_subset_identity,
    check_three_quarters_bound,
    complement_residual,
    dual_subset_sweep,
    parseval_subset_sweep,
    parsevalize,
    verify_kgf_dual,
)
from framelab.frame_ops import frame_operator, subset_frame_operators, subset_masks
from framelab.numerics import adjoint, inner, operator_norm, unit_probes
from framelab.oracle import reference_frame_operator


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
    """Per subset I: the empty set, I^c and the first member of I^c."""
    comp = ~masks
    first = comp & (np.cumsum(comp, axis=1) == 1)
    return np.stack([np.zeros_like(masks), comp, first], axis=1)


def members(mask):
    return tuple(int(j) for j in np.flatnonzero(mask))


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
    sweep = dual_subset_sweep(pair, masks, probes)
    result = sweep.identity
    size = pair.base.size
    kf = [pair.k.matrix @ f for f in probes]
    for i, mask in enumerate(masks):
        subset = members(mask)
        s_i = partial_reference(pair.base, pair.dual, subset)
        s_c = partial_reference(pair.base, pair.dual, set(range(size)) - set(subset))
        complement = operator_norm(s_i + s_c - pair.k.matrix)
        assert sweep.complement_residual[i] == complement, subset
        assert complement_residual(pair, subset) == complement, subset
        for p, f in enumerate(probes):
            s_i_f, s_c_f = s_i @ f, s_c @ f
            lhs = inner(s_i_f, kf[p]) - sq(s_i_f)
            rhs = np.conj(inner(s_c_f, kf[p])) - sq(s_c_f)
            context = (subset, p)
            assert_same(result.lhs[i, p], lhs, context)
            assert_same(result.rhs[i, p], rhs, context)
            assert result.residual[i, p] == abs(lhs - rhs), context
            view = check_dual_subset_identity(pair, subset, f)
            assert view.lhs == complex(result.lhs[i, p]), context
            assert view.rhs == complex(result.rhs[i, p]), context
            assert view.residual == result.residual[i, p], context
            assert view.passed == result.passed[i, p], context


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
            view = check_three_quarters_bound(system, k, subset, f)
            assert (view.lhs, view.rhs, view.target, view.symmetry_residual,
                    view.slack, view.passed) == (
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
                view = check_parseval_subset_identity(system, k, subset, ext, f)
                assert view.lhs == sweep.identity.lhs[entry], context
                assert view.rhs == sweep.identity.rhs[entry], context
                assert view.residual == sweep.identity.residual[entry], context
                assert view.passed == sweep.identity.passed[entry], context


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
        if not pair.exploratory and verify_kgf_dual(pair).passed:
            check_dual_entries(pair, masks, probes)
    check_parseval_entries(system, root, masks, probes)
    if name == "FIX-I":
        check_parseval_entries(system, operators["k"], masks, probes)


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

"""The matrix-at-a-time document writer against the per-number encoder it replaced."""

import math

import numpy as np
import pytest

from framelab import InputError
from framelab.documents import (
    FrameDocument,
    _encode_matrix,
    canonical_json,
    dumps,
    load_packaged_fixture,
    packaged_fixture_names,
)


def reference_scalar(value, complex_field):
    if complex_field:
        value = complex(value)
        return [float(value.real), float(value.imag)]
    value = complex(value)
    if value.imag != 0.0:
        raise InputError("complex entry in a document tagged real")
    return float(value.real)


def reference_matrix(matrix, complex_field):
    return [[reference_scalar(v, complex_field) for v in row] for row in np.asarray(matrix)]


def reference_dumps(doc):
    """The document text as the per-number encoder wrote it."""
    complex_field = doc.field == "complex"
    return canonical_json({
        "field": doc.field,
        "dim": doc.dim,
        "weights": [float(w) for w in doc.weights],
        "subspaces": [reference_matrix(vs, complex_field) for vs in doc.subspaces],
        "local_operators": [reference_matrix(m, complex_field) for m in doc.local_operators],
        "operators": {name: reference_matrix(m, complex_field)
                      for name, m in doc.operators.items()},
        "meta": doc.meta,
    })


def outcome(write, doc):
    """The text ``write`` gives for ``doc``, or the message of its InputError."""
    try:
        return write(doc)
    except InputError as exc:
        return ("InputError", str(exc))


def random_document(rng, complex_field):
    dim = int(rng.integers(1, 9))

    def block(rows):
        scale = 10.0 ** rng.uniform(-300, 300, size=(rows, dim))
        m = rng.standard_normal((rows, dim)) * scale
        if complex_field:
            m = m + 1j * rng.standard_normal((rows, dim)) * scale
        return m

    members = int(rng.integers(1, 5))
    return FrameDocument(
        field="complex" if complex_field else "real", dim=dim,
        weights=list(0.5 + rng.random(members)),
        subspaces=[list(block(int(rng.integers(0, dim + 1)))) for _ in range(members)],
        local_operators=[block(int(rng.integers(1, 4))) for _ in range(members)],
        operators={"k": block(dim), "u": block(dim)},
        meta={"seed": 7, "note": "x"})


def edge_document(complex_field):
    """-0.0, integer entries, 0-d subspaces and (in a real document) complex zeros."""
    zero_imag = np.array([[1.5 + 0j, -0.0 - 0j, 2.0 - 0j]])
    return FrameDocument(
        field="complex" if complex_field else "real", dim=3,
        weights=[1, 2.5],
        subspaces=[[], [np.array([-0.0, 1.0, 0.0])]],
        local_operators=[np.array([[1, -2, 3]]), zero_imag],
        operators={"k": [[-0.0, 0, 1], [2**53 + 1, 5e-324, -1e308], [1, 1, 1]]})


def test_packaged_fixtures_are_written_as_before():
    for name in packaged_fixture_names():
        doc = load_packaged_fixture(name)
        assert dumps(doc) == reference_dumps(doc), name


@pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
def test_seeded_documents_are_written_as_before(complex_field):
    rng = np.random.Generator(np.random.PCG64(0xD0C + complex_field))
    for _ in range(40):
        doc = random_document(rng, complex_field)
        assert dumps(doc) == reference_dumps(doc)


@pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
def test_edge_entries_are_written_as_before(complex_field):
    doc = edge_document(complex_field)
    text = dumps(doc)
    assert text == reference_dumps(doc)
    assert '"subspaces":[[],' in text and "-0" in text


def test_an_embedded_matrix_renders_as_its_rows():
    m = np.array([[1.0, -0.0], [0.1, 3e-310]])
    text = canonical_json({"m": _encode_matrix(m, False)})
    assert text == canonical_json({"m": reference_matrix(m, False)})
    assert text == '{"m":[[1,-0],[0.10000000000000001,2.9999999999999908e-310]]}\n'
    assert canonical_json([_encode_matrix(np.zeros((2, 0)), True)]) == "[[[],[]]]\n"


def _with(doc, where, index, value):
    """A copy of ``doc`` whose ``where`` matrix (key or position) has ``value`` at ``index``."""
    target = doc.operators if isinstance(where, str) else doc.local_operators
    matrices = dict(target) if isinstance(where, str) else list(target)
    m = np.array(matrices[where], dtype=complex if doc.field == "complex" else None)
    if np.iscomplexobj(value):
        m = m.astype(complex)
    m[index] = value
    matrices[where] = m
    if isinstance(where, str):
        return FrameDocument(doc.field, doc.dim, doc.weights, doc.subspaces,
                             doc.local_operators, matrices, doc.meta)
    return FrameDocument(doc.field, doc.dim, doc.weights, doc.subspaces, matrices,
                         doc.operators, doc.meta)


@pytest.mark.parametrize("name", ["FIX-A", "FIX-R002"])
def test_errors_name_the_same_entry(name):
    base = load_packaged_fixture(name)
    complex_field = base.field == "complex"
    nan, inf = math.nan, math.inf
    cases = [
        _with(base, "k", (1, 2), nan),
        _with(base, "k", (0, 1), -inf),
        _with(_with(base, "k", (2, 0), nan), "k", (0, 2), inf),  # row-major: the inf first
        _with(_with(base, "k", (0, 0), nan), 0, (0, 0), inf),  # local operators come first
        _with(base, "k", (1, 1), complex(1.0, nan)),
    ]
    if complex_field:
        cases.append(_with(base, "k", (1, 1), complex(inf, nan)))  # real part first
    else:
        cases += [_with(base, "k", (1, 1), complex(nan, 0.0)),
                  _with(base, 0, (0, 1), complex(0.0, 1.0)),
                  # a complex entry is reported before a non-finite one written earlier
                  _with(_with(base, 0, (0, 0), nan), "k", (0, 0), complex(0.0, 1e-300))]
    messages = set()
    for doc in cases:
        got = outcome(dumps, doc)
        assert got == outcome(reference_dumps, doc)
        assert got[0] == "InputError"
        messages.add(got[1])
    assert "non-finite value inf cannot be serialized" in messages
    assert "non-finite value nan cannot be serialized" in messages
    assert "non-finite value -inf cannot be serialized" in messages
    if not complex_field:
        assert "complex entry in a document tagged real" in messages

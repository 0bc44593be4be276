"""Frame system documents: a deterministic on-disk format.

A document is a UTF-8 JSON object with sorted keys, floats printed at 17
significant digits (which round-trips IEEE doubles exactly), and a trailing
newline, so that regenerating a committed file is byte-identical.  Real
documents store plain numbers; complex documents store every matrix entry as
an [re, im] pair.  Subspaces are stored as lists of basis vectors (each of
ambient length; an empty list is a zero-dimensional subspace), local
operators as row-major d_j x n matrices, and named square operators (such as
"k") in the ``operators`` map.  In memory a :class:`FrameDocument` holds the
same matrices as validated read-only arrays.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dataclass_field
from importlib import resources
from itertools import chain
from pathlib import Path

import numpy as np

from .model import (
    BoundedOperator,
    GFusionSystem,
    HilbertSpace,
    LocalOperator,
    WeightedSubspace,
    _read_only,
)
from .numerics import InputError, orthonormalize, real_scalar

__all__ = [
    "FrameDocument",
    "canonical_json",
    "dumps",
    "loads",
    "save_document",
    "save_text",
    "load_document",
    "to_system",
    "from_system",
    "spec_document",
    "load_packaged_fixture",
    "packaged_fixture_names",
    "oracle_sidecar_path",
]


@dataclass(eq=False)
class FrameDocument:
    """A frame system plus named operators: rows of numbers in the JSON, validated
    read-only arrays in memory, of shapes ``(m_j, dim)`` (subspace basis vectors;
    ``[]`` has none), ``(d_j, dim)`` (local operators) and ``(dim, dim)`` (named
    operators) and of the field's dtype; weights are floats.  The constructor is
    the one gate: a misshapen matrix, a bad ``dim`` and a complex entry in a real
    document raise InputError; non-finite entries stay for :func:`dumps` to report.
    Equality is identity; compare two documents' content through :func:`dumps`.
    """

    field: str
    dim: int
    weights: list
    subspaces: list
    local_operators: list
    operators: dict = dataclass_field(default_factory=dict)
    meta: dict = dataclass_field(default_factory=dict)

    def __post_init__(self):
        dim, dtype = self.dim, np.dtype(HilbertSpace(self.field, self.dim).dtype)
        counts = (len(self.weights), len(self.subspaces), len(self.local_operators))
        if len(set(counts)) != 1:
            raise InputError(f"member counts disagree: {counts}")
        self.weights = [real_scalar(w, f"weight {i} must be a real number, got {w!r}")
                        for i, w in enumerate(self.weights)]
        self.subspaces = [_gated(vs, dtype, dim, "subspace {} vectors must have length {}", i)
                          for i, vs in enumerate(self.subspaces)]
        self.local_operators = [
            _gated(m, dtype, dim, "local operator {} rows must have length {}", i)
            for i, m in enumerate(self.local_operators)]
        self.operators = {name: _gated(m, dtype, dim, "operator {!r} must be {}x{}", name, dim,
                                       rows=dim)
                          for name, m in self.operators.items()}


def _gated(value, dtype: np.dtype, width: int, message: str, *args,
           rows: int | None = None) -> np.ndarray:
    """``value`` as a read-only ``(rows, width)`` array of ``dtype``, else
    InputError(message.format(*args, width)).  A read-only contiguous array of
    ``dtype`` is kept; anything else is copied in its own memory layout, so that
    a system built from the document computes as one built from the caller's.
    """
    try:
        m = np.asarray(value)
    except ValueError:  # ragged rows: no matrix at all
        m = np.empty(())
    if m.shape == (0,):
        m = m.reshape(0, width)
    if (m.ndim != 2 or m.shape[1] != width or rows not in (None, m.shape[0])
            or m.dtype.kind not in "biufc"):
        raise InputError(message.format(*args, width))
    if m.dtype.kind == "c" and dtype.kind == "f":
        if (m.imag != 0.0).any():
            raise InputError("complex entry in a document tagged real")
        m = m.real
    flags = m.flags
    if m.dtype != dtype or flags.writeable or not flags.forc:
        m = _read_only(m.astype(dtype))
    return m


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise InputError(f"non-finite value {x!r} cannot be serialized")
    return format(float(x), ".17g")


class _Rendered(str):
    """JSON text rendered ahead of time, which :func:`_emit` writes as it stands."""


def _emit(obj) -> str:
    if type(obj) is _Rendered:
        return obj
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_emit(v) for v in obj) + "]"
    if isinstance(obj, dict):
        parts = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise InputError("document keys must be strings")
            parts.append(json.dumps(key, ensure_ascii=False) + ":" + _emit(obj[key]))
        return "{" + ",".join(parts) + "}"
    raise InputError(f"cannot serialize value of type {type(obj).__name__}")


def canonical_json(data) -> str:
    """Deterministic JSON text: sorted keys, 17-digit floats, one newline."""
    return _emit(data) + "\n"


def _encode_matrix(m: np.ndarray, complex_field: bool):
    """A document matrix's JSON text: rows of numbers, or of [re, im] pairs when complex.

    A matrix holding a non-finite value stays a list of floats, so that
    :func:`_emit` reports its first such value (row-major, real part first)
    in document order, and nothing is rendered.
    """
    values = m
    if complex_field:
        # each complex128 is the float64 pair (re, im)
        values = np.ascontiguousarray(m).view(np.float64).reshape(*m.shape, 2)
    if not np.isfinite(values).all():
        return values.tolist()
    if not values.size:
        return _Rendered("[" + ",".join(["[]"] * len(values)) + "]")
    # "%.17g" % x is format(x, ".17g"), as _format_float writes a float
    entry = "[%.17g,%.17g]" if complex_field else "%.17g"
    row = "[" + ",".join([entry] * m.shape[1]) + "]"
    template = "[" + ",".join([row] * m.shape[0]) + "]"
    return _Rendered(template % tuple(values.ravel().tolist()))


# JSON numbers parse to exactly these types; true and false parse to bool.
_REAL_TYPES = frozenset((int, float))


def _real_array(values: list) -> np.ndarray:
    """The one check every number in a document passes, then float64 values.

    Each value must be a JSON number, an int or a float; a bool, a string
    or a list is an InputError, as is an int too large for a double.
    """
    if not set(map(type, values)) <= _REAL_TYPES:
        bad = next(v for v in values if type(v) not in _REAL_TYPES)
        raise InputError(f"expected a real number, got {bad!r}")
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError as exc:
        raise InputError(f"number out of range for a double: {exc}") from exc


def _decode_matrix(rows, complex_field: bool, label: str):
    if not isinstance(rows, list) or not rows:
        raise InputError(f"{label} must be a non-empty list of rows")
    if not all(type(row) is list for row in rows):
        raise InputError(f"{label} rows must be lists")
    widths = set(map(len, rows))
    if len(widths) != 1:
        raise InputError(f"{label} rows have uneven lengths")
    entries = list(chain.from_iterable(rows))
    if complex_field:
        if not (set(map(type, entries)) <= {list} and set(map(len, entries)) <= {2}):
            bad = next(v for v in entries if not (type(v) is list and len(v) == 2))
            raise InputError(f"expected [re, im] pair, got {bad!r}")
        # each (re, im) pair of float64s is the memory layout of one complex128
        values = _real_array(list(chain.from_iterable(entries))).view(np.complex128)
    else:
        values = _real_array(entries)
    # read-only already, so the FrameDocument gate keeps it without a copy
    return _read_only(values.reshape(len(rows), widths.pop()))


def _document_data(doc: FrameDocument) -> dict:
    complex_field = doc.field == "complex"
    return {
        "field": doc.field,
        "dim": doc.dim,
        "weights": doc.weights,
        "subspaces": [_encode_matrix(vs, complex_field) for vs in doc.subspaces],
        "local_operators": [_encode_matrix(m, complex_field) for m in doc.local_operators],
        "operators": {name: _encode_matrix(m, complex_field)
                      for name, m in doc.operators.items()},
        "meta": doc.meta,
    }


def dumps(doc: FrameDocument) -> str:
    return canonical_json(_document_data(doc))


def loads(text: str) -> FrameDocument:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"document is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("document root must be an object")
    required = {"field", "dim", "weights", "subspaces", "local_operators"}
    missing = required - set(data)
    if missing:
        raise InputError(f"document is missing keys: {sorted(missing)}")
    # FrameDocument checks field and dim; a matrix of an unknown field decodes as real
    complex_field = data["field"] == "complex"
    for key in ("weights", "subspaces", "local_operators"):
        if not isinstance(data[key], list):
            raise InputError(f"{key} must be a list")
    weights = _real_array(data["weights"]).tolist()
    # an empty vector list is a zero-dimensional subspace
    subspaces = [vs if vs == [] else _decode_matrix(vs, complex_field, f"subspace {i}")
                 for i, vs in enumerate(data["subspaces"])]
    local_ops = [_decode_matrix(m, complex_field, f"local operator {i}")
                 for i, m in enumerate(data["local_operators"])]
    # a missing or null operators or meta is empty; any other non-object is refused
    for key in ("operators", "meta"):
        if data.get(key) is not None and not isinstance(data[key], dict):
            raise InputError(f"{key} must be an object")
    operators = {name: _decode_matrix(m, complex_field, f"operator {name!r}")
                 for name, m in (data.get("operators") or {}).items()}
    meta = data.get("meta") or {}
    return FrameDocument(data["field"], data["dim"], weights, subspaces, local_ops, operators,
                         meta)


def save_document(doc: FrameDocument, path) -> None:
    save_text(path, dumps(doc))


def save_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as a new file, unlinking what is there: ext4 flushes a
    file truncated and rewritten in place to disk on close, tens of ms on a busy disk."""
    Path(path).unlink(missing_ok=True)
    Path(path).write_text(text, encoding="utf-8")


def load_document(path) -> FrameDocument:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return loads(text)


def to_system(doc: FrameDocument):
    """Build the in-memory system and operator map a document describes, on the
    document's own read-only arrays (a subspace's basis is its rows transposed)."""
    members = tuple((WeightedSubspace(vectors.T, weight), LocalOperator(local))
                    for weight, vectors, local in
                    zip(doc.weights, doc.subspaces, doc.local_operators))
    system = GFusionSystem(HilbertSpace(doc.field, doc.dim), members)
    operators = {name: BoundedOperator(matrix) for name, matrix in doc.operators.items()}
    return system, operators


def from_system(system: GFusionSystem, operators=None, meta=None) -> FrameDocument:
    """The document of a system plus named operators (BoundedOperators or matrices)."""
    op_map = {name: op.matrix if isinstance(op, BoundedOperator) else op
              for name, op in (operators or {}).items()}
    subs, ops = zip(*system.members)
    return FrameDocument(system.space.field, system.dim, [sub.weight for sub in subs],
                         [sub.basis.T for sub in subs], [op.matrix for op in ops],
                         op_map, dict(meta or {}))


def spec_document(tokens, seed: int) -> FrameDocument:
    """A seeded real system and invertible k from ``gen --spec`` tokens: dim, then MxD shapes."""
    if seed < 0:
        raise InputError(f"seed must be a non-negative integer, got {seed}")
    if len(tokens) < 2:
        raise InputError("a spec needs an ambient dimension and at least one MxD shape")
    try:
        dim = int(tokens[0])
    except ValueError as exc:
        raise InputError(f"ambient dimension must be an integer, got {tokens[0]!r}") from exc
    if dim <= 0:
        raise InputError("ambient dimension must be positive")
    shapes = []
    for token in tokens[1:]:
        try:
            m, d = (int(part) for part in token.lower().split("x"))
        except ValueError as exc:
            raise InputError(f"member shape must look like MxD, got {token!r}") from exc
        if not (1 <= m <= dim) or d < 1:
            raise InputError(f"member shape {token!r} out of range for dim {dim}")
        shapes.append((m, d))
    rng = np.random.Generator(np.random.PCG64(seed))
    members = []
    for m, d in shapes:
        basis = orthonormalize(rng.standard_normal((dim, m)))
        local = rng.standard_normal((d, dim))
        weight = 0.5 + rng.random()
        members.append((WeightedSubspace(basis, float(weight)), LocalOperator(local)))
    system = GFusionSystem(HilbertSpace("real", dim), tuple(members))
    q1, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    q2, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    k = q1 @ np.diag(0.6 + rng.random(dim)) @ q2
    spec = [str(dim)] + [f"{m}x{d}" for m, d in shapes]
    meta = {"name": "spec_" + "_".join(spec) + f"_seed{seed}", "seed": seed, "spec": spec}
    return from_system(system, {"k": k}, meta)


def _fixture_filename(name: str) -> str:
    return name.lower().replace("-", "_") + ".json"


def load_packaged_fixture(name: str) -> FrameDocument:
    """Load one of the fixture documents shipped inside the package."""
    filename = _fixture_filename(name)
    root = resources.files(__package__) / "fixtures"
    target = root / filename
    try:
        text = target.read_text(encoding="utf-8")
    except (FileNotFoundError, OSError) as exc:
        raise InputError(f"no packaged fixture named {name!r}") from exc
    return loads(text)


def packaged_fixture_names() -> list:
    """Names of all fixture documents shipped inside the package."""
    root = resources.files(__package__) / "fixtures"
    names = []
    try:
        entries = list(root.iterdir())
    except (FileNotFoundError, OSError):
        return []
    for entry in entries:
        stem = entry.name
        if stem.endswith(".oracle.json"):
            continue
        if stem.endswith(".json"):
            names.append(stem[:-5].upper().replace("_", "-"))
    return sorted(names)


def oracle_sidecar_path(document_path) -> Path:
    """The sidecar path convention: <name>.oracle.json next to <name>.json."""
    p = Path(document_path)
    stem = p.name[:-5] if p.name.endswith(".json") else p.name
    return p.with_name(stem + ".oracle.json")

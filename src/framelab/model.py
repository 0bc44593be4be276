"""Domain model: weighted subspaces, local operators, generalized fusion systems.

A system is a finite ordered family ``(W_j, L_j, v_j)`` over one ambient
space: ``W_j`` a subspace given by an orthonormal basis, ``L_j`` a local
operator from the ambient space into a coordinate space of dimension
``d_j``, and ``v_j > 0`` a weight.  Local operators are stored as dense
``d_j x n`` matrices; subspace bases as ``n x m_j`` column blocks.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numerics import (
    DEFAULT_TOL,
    InputError,
    ToleranceProfile,
    adjoint,
    as_matrix,
    operator_norm,
    orthonormalize,
    pinv,
    real_scalar,
    significant_rank,
    within_scale,
)

__all__ = [
    "HilbertSpace",
    "WeightedSubspace",
    "LocalOperator",
    "GFusionSystem",
    "BoundedOperator",
    "projection",
    "ProjectionCommutationReport",
    "check_projection_commutation",
    "embed_k_frame",
    "FixtureBundle",
    "fixture",
]


@dataclass(frozen=True)
class HilbertSpace:
    """Ambient space: scalar field tag plus finite dimension, the dtype of everything over it."""

    field: str
    dim: int

    def __post_init__(self):
        if self.field not in ("real", "complex"):
            raise InputError(f"field must be 'real' or 'complex', got {self.field!r}")
        if isinstance(self.dim, bool) or not isinstance(self.dim, int) or self.dim < 1:
            raise InputError(f"dim must be a positive integer, got {self.dim!r}")

    @property
    def dtype(self):
        return np.complex128 if self.field == "complex" else np.float64


@dataclass(frozen=True)
class WeightedSubspace:
    """Subspace with an orthonormal basis (columns) and a positive weight.

    The columns must be orthonormal within ``DEFAULT_TOL.for_scale(1)``.  A
    zero-dimensional subspace (basis with no columns) is legal; it shows up
    naturally in dual constructions.
    """

    basis: np.ndarray
    weight: float

    def __post_init__(self):
        basis = as_matrix(self.basis, "basis")
        object.__setattr__(self, "basis", basis)
        if basis.shape[0] < 1:
            raise InputError("subspace basis needs a positive ambient dimension")
        if basis.shape[1] > basis.shape[0]:
            raise InputError("subspace basis has more columns than the ambient dimension")
        gram = adjoint(basis) @ basis
        if basis.shape[1] and not within_scale(gram - np.eye(basis.shape[1]), 1.0, DEFAULT_TOL):
            raise InputError("subspace basis columns are not orthonormal")
        message = f"weight must be positive and finite, got {self.weight!r}"
        w = real_scalar(self.weight, message)
        if not (w > 0.0 and np.isfinite(w)):
            raise InputError(message)
        object.__setattr__(self, "weight", w)

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def subspace_dim(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class LocalOperator:
    """Operator from the ambient space into a d_j-dimensional coordinate space."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", as_matrix(self.matrix, "local operator"))
        if self.matrix.shape[0] < 1:
            raise InputError("local operator must map into a space of dimension >= 1")

    @property
    def local_dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class GFusionSystem:
    """Finite weighted family of (subspace, local operator) members over one space."""

    space: HilbertSpace
    members: tuple

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise InputError("a system needs at least one member")
        for j, (sub, op) in enumerate(members):
            if not isinstance(sub, WeightedSubspace) or not isinstance(op, LocalOperator):
                raise InputError(f"member {j} must be a (WeightedSubspace, LocalOperator) pair")
            if sub.ambient_dim != self.space.dim:
                raise InputError(f"member {j}: subspace lives in dimension {sub.ambient_dim}, "
                                 f"space has {self.space.dim}")
            if op.ambient_dim != self.space.dim:
                raise InputError(f"member {j}: local operator domain {op.ambient_dim} "
                                 f"!= space dimension {self.space.dim}")
            if np.result_type(self.space.dtype, sub.basis, op.matrix) != self.space.dtype:
                raise InputError(f"member {j}: complex matrix in a real space")
        object.__setattr__(self, "members", members)

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def dim(self) -> int:
        return self.space.dim

    def weights(self) -> np.ndarray:
        return np.array([sub.weight for sub, _ in self.members])

    def local_dims(self) -> tuple:
        return tuple(op.local_dim for _, op in self.members)

    @cached_property
    def local_factors(self) -> tuple:
        """``L_j pi_Wj`` for every member, in member order, built once."""
        return tuple(op.matrix @ projection(sub) for sub, op in self.members)

    @cached_property
    def synthesis_matrix(self) -> np.ndarray:
        """T, column block j equal to ``v_j pi_Wj Lj*`` in member order; built once, read-only."""
        t = np.zeros((self.dim, sum(self.local_dims())), dtype=self.space.dtype)
        start = 0
        for sub, op in self.members:
            stop = start + op.local_dim
            t[:, start:stop] = sub.weight * (projection(sub) @ adjoint(op.matrix))
            start = stop
        return _read_only(t)

    @cached_property
    def frame_matrix(self) -> np.ndarray:
        """S = T T*, summed by :func:`frame_ops.frame_operator`; built once, read-only."""
        from .frame_ops import frame_operator

        return _read_only(frame_operator(self))

    def with_local_operators(self, operators) -> "GFusionSystem":
        """Same subspaces and weights, new local operators (dims must agree)."""
        operators = list(operators)
        if len(operators) != self.size:
            raise InputError(f"expected {self.size} local operators, got {len(operators)}")
        return GFusionSystem(self.space, tuple(
            (sub, op if isinstance(op, LocalOperator) else LocalOperator(op))
            for (sub, _), op in zip(self.members, operators)))


class BoundedOperator:
    """Square matrix wrapper with a cached singular value decomposition."""

    def __init__(self, matrix):
        matrix = as_matrix(matrix, "operator")
        if matrix.shape[0] != matrix.shape[1]:
            raise InputError(f"bounded operator must be square, got {matrix.shape}")
        if not matrix.size:
            raise InputError("bounded operator must not be empty")
        self.matrix = matrix

    @classmethod
    def identity(cls, dim: int) -> "BoundedOperator":
        return cls(np.eye(dim))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def svd(self):
        return np.linalg.svd(self.matrix)

    @cached_property
    def times_adjoint(self) -> np.ndarray:
        """``k k*`` for this operator k; built once, read-only."""
        return _read_only(self.matrix @ adjoint(self.matrix))

    @property
    def singular_values(self) -> np.ndarray:
        return self.svd[1]

    @property
    def norm(self) -> float:
        return float(self.singular_values[0])

    def adjoint(self) -> "BoundedOperator":
        """``k*`` for this operator k; the same read-only operator on every
        call, so an analysis against it runs once (``frame_ops._memoized``)."""
        return self._adjoint

    @cached_property
    def _adjoint(self) -> "BoundedOperator":
        return BoundedOperator(_read_only(adjoint(self.matrix)))

    def pinv(self, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
        return pinv(self.matrix, tol)

    def range_basis(self, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
        u, s, _ = self.svd
        return u[:, :significant_rank(s, tol)]

    def rank(self, tol: ToleranceProfile = DEFAULT_TOL) -> int:
        return significant_rank(self.singular_values, tol)

    def is_invertible(self, tol: ToleranceProfile = DEFAULT_TOL) -> bool:
        return significant_rank(self.singular_values, tol) == self.dim

    def is_unitary(self, tol: ToleranceProfile = DEFAULT_TOL) -> bool:
        """``|u*u - I| <= tol.for_scale(1)`` for this operator u."""
        return within_scale(adjoint(self.matrix) @ self.matrix - np.eye(self.dim), 1.0, tol)

    def __repr__(self):
        return f"BoundedOperator(dim={self.dim})"


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a`` itself, no longer writable: cached values are shared by every reader."""
    a.setflags(write=False)
    return a


def projection(subspace: WeightedSubspace) -> np.ndarray:
    """Orthogonal projection matrix onto the subspace."""
    q = subspace.basis
    return q @ adjoint(q)


@dataclass
class ProjectionCommutationReport:
    """Residuals of the projection/adjoint commutation identities.

    ``adjoint_residual`` measures |pi_V T* - pi_V T* pi_TV|; when T is unitary
    within tolerance, ``unitary_residual`` additionally measures
    |pi_TV T - T pi_V|, else it is None.  The report holds residuals only;
    ``is_unitary`` is the one verdict, made under the check's tolerance.
    """

    adjoint_residual: float
    unitary_residual: float | None
    is_unitary: bool


def check_projection_commutation(subspace: WeightedSubspace, operator: BoundedOperator,
                                 tol: ToleranceProfile = DEFAULT_TOL) -> ProjectionCommutationReport:
    """Verify pi_V T* = pi_V T* pi_TV, plus pi_TV T = T pi_V for unitary T."""
    if subspace.ambient_dim != operator.dim:
        raise InputError("subspace and operator live in different dimensions")
    t = operator.matrix
    pv = projection(subspace)
    tv_basis = orthonormalize(t @ subspace.basis, tol)
    ptv = tv_basis @ adjoint(tv_basis)
    r1 = operator_norm(pv @ adjoint(t) - pv @ adjoint(t) @ ptv)
    is_unitary = operator.is_unitary(tol)
    r2 = operator_norm(ptv @ t - t @ pv) if is_unitary else None
    return ProjectionCommutationReport(float(r1), None if r2 is None else float(r2), is_unitary)


def embed_k_frame(vectors) -> GFusionSystem:
    """Embed ordinary frame vectors {f_j} as a generalized fusion system.

    Each vector becomes a member with the full space as subspace, weight one,
    and the rank-one local functional f -> <f, f_j>.  The space is complex
    when any vector is, else real.
    """
    try:
        vecs = [np.asarray(v) for v in vectors]
    except ValueError as exc:  # a ragged vector
        raise InputError(f"a frame vector is not a flat array of numbers: {exc}") from exc
    if not vecs:
        raise InputError("at least one vector required")
    if vecs[0].ndim != 1:
        raise InputError(f"a frame vector must be 1-dimensional, got {vecs[0].tolist()!r}")
    n = vecs[0].shape[0]
    field = "complex" if any(np.iscomplexobj(v) for v in vecs) else "real"
    space = HilbertSpace(field, int(n))
    eye = np.eye(n, dtype=space.dtype)
    members = []
    for v in vecs:
        if v.shape != (n,):
            raise InputError("all vectors must share one dimension")
        if v.dtype.kind not in "biufc":
            raise InputError(f"a frame vector must hold numbers, got {v.tolist()!r}")
        row = np.conj(v).reshape(1, n).astype(space.dtype)
        members.append((WeightedSubspace(eye.copy(), 1.0), LocalOperator(row)))
    return GFusionSystem(space, tuple(members))


@dataclass(frozen=True)
class FixtureBundle:
    """A named committed system together with its named square operators."""

    name: str
    system: GFusionSystem
    operators: dict
    errata: tuple = ()


def fixture(name: str) -> FixtureBundle:
    """Committed reference systems, loaded from the package fixture data.

    ``FIX-A``: coordinate system on R^3 with a rank-2 shift ``k`` (bounds 1/2
    and 1) and a second shift ``u``; carries the E1 discrepancy record.
    ``FIX-I``: coordinate system on R^2 with ``k = I``, tight with bound 1.
    ``FIX-R<id>``: committed randomly generated systems, e.g. ``FIX-R000``.
    """
    from . import documents

    doc = documents.load_packaged_fixture(name)
    system, operators = documents.to_system(doc)
    return FixtureBundle(name, system, operators, tuple(doc.meta.get("errata", ())))

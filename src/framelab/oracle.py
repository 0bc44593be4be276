"""Reference computations built directly from raw document data.

This module deliberately avoids the system/operator classes and the frame
machinery: everything is assembled from the validated arrays a document
holds, using dense numpy primitives only.  Sidecar values frozen from these
routes give the test suite an answer key that the code under test cannot
influence.
"""
from __future__ import annotations

import numpy as np

from .documents import FrameDocument
from .numerics import InputError

__all__ = [
    "reference_frame_operator",
    "reference_spectrum",
    "reference_upper_bound",
    "reference_lower_bound",
    "oracle_payload",
]

# Far below the library's working tolerance and still ~500x above eigvalsh
# rounding at scale; the PSD floor bounds the one-sided bias of the bisection
# boundary, which must stay under 1e-8 relative on ill-scaled targets.
PSD_ABS = 1e-13
PSD_REL = 1e-13


def reference_frame_operator(doc: FrameDocument) -> np.ndarray:
    """S = sum_j w_j^2 P_j L_j* L_j P_j from the document's arrays, P_j = B_j B_j*."""
    n = doc.dim
    s = np.zeros((n, n), dtype=np.complex128 if doc.field == "complex" else np.float64)
    for weight, rows, lmat in zip(doc.weights, doc.subspaces, doc.local_operators):
        basis = rows.T
        proj = basis @ basis.conj().T
        lp = lmat @ proj
        s = s + (weight**2) * (lp.conj().T @ lp)
    return s


def reference_spectrum(matrix: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix (symmetrized first)."""
    matrix = np.asarray(matrix)
    sym = 0.5 * (matrix + matrix.conj().T)
    return np.linalg.eigvalsh(sym)


def _is_psd(matrix: np.ndarray) -> bool:
    spectrum = reference_spectrum(matrix)
    scale = float(np.abs(spectrum).max()) if spectrum.size else 0.0
    return bool(spectrum.min() >= -(PSD_ABS + PSD_REL * scale))


def reference_upper_bound(s: np.ndarray) -> float:
    """Largest eigenvalue of the frame operator."""
    return float(reference_spectrum(s)[-1])


def reference_lower_bound(s: np.ndarray, k: np.ndarray,
                          rel_width: float = 1e-12, max_iter: int = 200) -> float:
    """sup{a >= 0 : S - a k k* is PSD} by doubling then bisection.

    Returns 0.0 when no positive multiple fits (the system is not a frame
    for k) and raises when k k* is numerically zero.
    """
    k = np.asarray(k)
    kk = k @ k.conj().T
    if float(np.abs(kk).max(initial=0.0)) == 0.0:
        raise InputError("k k* vanishes; the lower bound is undefined")
    if not _is_psd(s):
        raise InputError("frame operator is not PSD; raw data is inconsistent")

    def fits(a: float) -> bool:
        return _is_psd(s - a * kk)

    hi = 1.0
    doublings = 0
    while fits(hi):
        hi *= 2.0
        doublings += 1
        if doublings > 200:
            raise InputError("lower bound does not terminate; k k* may be singular "
                             "relative to S on a shared kernel")
    lo = 0.0
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if fits(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= rel_width * max(1.0, hi):
            break
    return float(lo)


def oracle_payload(doc: FrameDocument) -> dict:
    """Sidecar data: spectrum of S plus per-operator reference bounds."""
    s = reference_frame_operator(doc)
    spectrum = reference_spectrum(s)
    payload = {
        "spectrum": [float(x) for x in spectrum],
        "upper": reference_upper_bound(s),
        "operators": {},
    }
    for name in sorted(doc.operators):
        k = doc.operators[name]
        entry = {"lower": reference_lower_bound(s, k)}
        kk = k @ k.conj().T
        entry["target_norm"] = float(reference_spectrum(kk)[-1]) ** 0.5
        payload["operators"][name] = entry
    return payload

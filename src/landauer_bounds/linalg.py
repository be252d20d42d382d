"""Dense Hermitian linear algebra for small operator matrices.

Operators are plain ``numpy.ndarray`` values (complex128, square); the
helpers that validate, adjoin or symmetrize also take (..., d, d) stacks. All
dimensions in this package are tiny (d <= 9), so everything is dense and
eigendecomposition cost is negligible; what matters here is a deterministic,
regression-stable output convention for degenerate spectra.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NonHermitianInput

HERMITICITY_ATOL = 1e-10

# Eigenvalues closer than this (relative to the spectral scale) are treated as
# a degenerate cluster for the ordering convention below.
_TIE_ATOL = 1e-12


class EigenSystem(NamedTuple):
    """Spectral decomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; ``eigenvectors`` is unitary with
    the i-th column the eigenvector of ``eigenvalues[i]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_operator(m: np.ndarray) -> np.ndarray:
    """Coerce to a complex128 square matrix or a (..., d, d) stack of them."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return np.swapaxes(m, -1, -2).conj()


def require_hermitian(m: np.ndarray, atol: float = HERMITICITY_ATOL) -> np.ndarray:
    """Validate Hermiticity entrywise (max |m - m^dagger| <= atol), also on stacks."""
    a = as_operator(m)
    dev = np.max(np.abs(a - adjoint(a)))
    if dev > atol:
        raise NonHermitianInput(f"max |m - m^dagger| = {dev:.3e} exceeds {atol:.1e}")
    return a


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^dagger) / 2, also on stacks."""
    return (m + adjoint(m)) / 2.0


def _canonicalize(w: np.ndarray, v: np.ndarray) -> EigenSystem:
    """Apply the deterministic output convention to an ascending eigensystem.

    Each eigenvector is phase-fixed so that its largest-magnitude component
    (first index on ties) is real and positive; within a degenerate cluster,
    columns are ordered by the index of that component. Entropies and traces
    are invariant to the residual basis freedom inside degenerate clusters.
    """
    n = len(w)
    piv = np.argmax(np.abs(v), axis=0)
    phases = v[piv, np.arange(n)]
    v = v * np.conj(phases / np.abs(phases))

    tol = _TIE_ATOL * max(1.0, float(np.max(np.abs(w))) if n else 1.0)
    start = 0
    for end in range(1, n + 1):
        if end == n or w[end] - w[end - 1] > tol:
            if end - start > 1:
                block = slice(start, end)
                order = np.argsort(piv[block], kind="stable")
                v[:, block] = v[:, block][:, order]
                w[block] = w[block][order]
            start = end

    w.setflags(write=False)
    v.setflags(write=False)
    return EigenSystem(eigenvalues=w, eigenvectors=v)


def eigh(m: np.ndarray) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix with a fixed output convention.

    Eigenvalues ascending; eigenvector order and phases canonicalized (see
    ``_canonicalize``), making the output deterministic for identical input.
    """
    w, v = np.linalg.eigh(require_hermitian(m))
    return _canonicalize(w, v)


def trace_product(a: np.ndarray, b: np.ndarray) -> complex:
    """Tr[a b] without forming the product: sum_ij a_ij b_ji."""
    am = as_operator(a)
    bm = as_operator(b)
    if am.shape != bm.shape:
        raise DimensionMismatch(f"dimension mismatch: {am.shape} vs {bm.shape}")
    return complex(np.sum(am * bm.T))

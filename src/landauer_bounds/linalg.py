"""Dense Hermitian linear algebra for small operator matrices.

Operators are plain ``numpy.ndarray`` values (complex128, square), one matrix
or a (..., d, d) stack of them. All dimensions in this package are tiny
(d <= 9), so everything is dense. ``eigh`` returns what ``np.linalg.eigh``
returns: ascending eigenvalues and eigenvectors in the columns, with whatever
basis and phases LAPACK picks inside a degenerate level. Nothing downstream
depends on that choice; entropies, traces, Gibbs states and block dephasing
are the same in every eigenbasis.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NonHermitianInput

HERMITICITY_ATOL = 1e-10


def as_operator(m: np.ndarray) -> np.ndarray:
    """Coerce to a complex128 square matrix or a (..., d, d) stack of them."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return np.swapaxes(m, -1, -2).conj()


def require_hermitian(m: np.ndarray) -> np.ndarray:
    """Validate Hermiticity entrywise (max |m - m^dagger| <= HERMITICITY_ATOL), also on stacks."""
    a = as_operator(m)
    dev = np.max(np.abs(a - adjoint(a)))
    if dev > HERMITICITY_ATOL:
        raise NonHermitianInput(f"max |m - m^dagger| = {dev:.3e} exceeds {HERMITICITY_ATOL:.1e}")
    return a


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^dagger) / 2, also on stacks."""
    return (m + adjoint(m)) / 2.0


def eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` of a Hermitian matrix or stack, after ``require_hermitian``:
    ascending eigenvalues (..., d) and eigenvectors (..., d, d) in the columns."""
    return np.linalg.eigh(require_hermitian(m))

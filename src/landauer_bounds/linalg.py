"""Dense Hermitian linear algebra for small operator matrices.

Operators are plain ``numpy.ndarray`` values (complex128, square), one matrix
or a (..., d, d) stack of them. All dimensions in this package are tiny
(d <= 9), so everything is dense. This is the one module that decomposes a
Hermitian stack or changes its basis: ``eigh`` (after ``require_hermitian``)
and ``eigvalsh`` return ascending eigenvalues (..., d), and ``eigh`` the
eigenvectors (..., d, d) in the columns. Both read only the lower triangle,
as LAPACK's ``UPLO='L'`` does.

A stack of 2 x 2 matrices (the driven qubit) is solved in closed form, so a
qubit run never loads LAPACK's eigensolver; every other d goes to
``np.linalg.eigh``/``eigvalsh``. The closed form is exact for a diagonal
matrix and otherwise within 4e-15 max |entry| of LAPACK's eigenvalues
(``tests/test_linalg.py`` checks this on stacks scaled from 1e-300 to
1e300). Its eigenvectors have each largest-modulus entry real and positive
(the first of two equal moduli). Inside a degenerate level the basis is
arbitrary, LAPACK's as well as the closed form's; nothing downstream depends
on that choice: entropies, traces, Gibbs states and block dephasing are the
same in every eigenbasis.

Basis changes of a stack (V^dagger A V, V diag(w) V^dagger) multiply with
``matmul``. When both operands are 2 x 2 stacks, x y is column 0 of x times
row 0 of y plus column 1 times row 1, so a qubit run calls no complex BLAS
product either; it lies within 2e-15 max |entry| of ``np.matmul`` and is NaN
where that is. Every other shape calls ``np.matmul``.
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


def matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y of matrices or stacks, broadcast as in ``np.matmul``; two 2 x 2 stacks
    multiply as elementwise products (see the module docstring)."""
    if x.shape[-2:] == y.shape[-2:] == (2, 2):
        return x[..., :, :1] * y[..., :1, :] + x[..., :, 1:] * y[..., 1:, :]
    return np.matmul(x, y)


def eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues (..., d) and eigenvectors (..., d, d) in the columns of
    a Hermitian matrix or stack, after ``require_hermitian``."""
    a = require_hermitian(m)
    if a.shape[-1] == 2:
        return _qubit_eigh(a, vectors=True)
    return np.linalg.eigh(a)


def eigvalsh(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues (..., d) of a Hermitian matrix or stack, unchecked."""
    a = np.asarray(m)
    if a.shape[-2:] == (2, 2):
        return _qubit_eigh(a, vectors=False)
    return np.linalg.eigvalsh(a)


def _qubit_eigh(a: np.ndarray, vectors: bool) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Closed-form spectra (and eigenvectors) of a stack of 2 x 2 Hermitian matrices
    [[p, conj b], [b, q]], read from the lower triangle.

    Each matrix is scaled by its largest entry modulus first, so no product
    overflows. With mean = (p + q)/2, h = (p - q)/2 and r = hypot(h, |b|) the
    eigenvalue farther from 0 is mean +- r and the nearer one det/far, which
    keeps a small eigenvalue to full relative precision where mean -+ r would
    cancel (diag(1, e^-720) has eigenvalue e^-720, not 0). A NaN entry makes
    every output of its matrix NaN.
    """
    p, q, b = a[..., 0, 0].real, a[..., 1, 1].real, a[..., 1, 0]
    scale = np.maximum(np.maximum(np.abs(p), np.abs(q)), np.abs(b))
    with np.errstate(divide="ignore", invalid="ignore"):  # only a non-finite entry divides by 0
        unit = np.where(scale > 0.0, scale, 1.0)
        p, q, b = p / unit, q / unit, b / unit
        mean, h = 0.5 * (p + q), 0.5 * (p - q)
        r = np.hypot(h, np.abs(b))
        upper = mean >= 0.0  # whether the far eigenvalue is the larger one
        far = mean + np.where(upper, r, -r)
        near = (p * q - (b.real * b.real + b.imag * b.imag)) / np.where(far != 0.0, far, 1.0)
        # min and max keep the order where rounding puts near an ulp past far
        w = np.stack([np.minimum(near, far), np.maximum(near, far)], axis=-1) * scale[..., None]
        if not vectors:
            return w
        # The larger eigenvalue's vector, from whichever row of A - lambda I does
        # not cancel: (h + r, b) for h >= 0, (conj b, r - h) otherwise. A multiple
        # of the identity (r = 0) takes (0, 1), so that its basis is the identity.
        x = np.where(h >= 0.0, h + r, b.conj())
        y = np.where(h >= 0.0, b, r - h)
        y = np.where(r == 0.0, 1.0, y)
        v = np.stack([np.stack([-y.conj(), x.conj()], axis=-1), np.stack([x, y], axis=-1)],
                     axis=-1)  # columns: the lower eigenvector (-conj y, conj x), then (x, y)
        first = np.abs(v[..., 0, :]) >= np.abs(v[..., 1, :])
        pivot = np.where(first, v[..., 0, :], v[..., 1, :])
        v /= pivot[..., None, :]  # each pivot becomes 1, the other entry at most 1 in modulus
        v /= np.sqrt(1.0 + np.abs(np.where(first, v[..., 1, :], v[..., 0, :])) ** 2)[..., None, :]
    return w, np.where(np.isnan(scale)[..., None, None], np.nan, v)

import numpy as np
import pytest

from landauer_bounds import linalg
from landauer_bounds.errors import DimensionMismatch, NonFiniteFunctionValue, NonHermitianInput

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)


def random_hermitian(rng, dim, scale=1.0):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (a + a.conj().T) / 2


def test_eigh_identity():
    es = linalg.eigh(np.eye(2, dtype=complex))
    assert np.allclose(es.eigenvalues, [1.0, 1.0])
    assert np.allclose(es.eigenvectors, np.eye(2))


def test_eigh_sigma_z():
    es = linalg.eigh(SZ)
    assert np.allclose(es.eigenvalues, [-1.0, 1.0])
    assert np.allclose(es.eigenvectors[:, 0], [0, 1])
    assert np.allclose(es.eigenvectors[:, 1], [1, 0])


def test_eigh_sigma_x():
    es = linalg.eigh(SX)
    assert np.allclose(es.eigenvalues, [-1.0, 1.0])
    s = 1 / np.sqrt(2)
    assert np.allclose(es.eigenvectors[:, 0], [s, -s])
    assert np.allclose(es.eigenvectors[:, 1], [s, s])


@pytest.mark.parametrize("dim", range(2, 10))
def test_eigh_reconstruction_and_unitarity(dim):
    rng = np.random.default_rng(41 + dim)
    for _ in range(20):
        m = random_hermitian(rng, dim)
        es = linalg.eigh(m)
        v, w = es.eigenvectors, es.eigenvalues
        assert np.all(np.diff(w) >= -1e-12)
        assert np.linalg.norm(v.conj().T @ v - np.eye(dim)) < 1e-12
        assert np.linalg.norm((v * w) @ v.conj().T - m) < 1e-10


def test_eigh_deterministic():
    rng = np.random.default_rng(3)
    m = random_hermitian(rng, 9)
    a = linalg.eigh(m)
    b = linalg.eigh(m.copy())
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_eigh_degenerate_ordering():
    es = linalg.eigh(np.diag([2.0, 1.0, 1.0]).astype(complex))
    assert np.allclose(es.eigenvalues, [1, 1, 2])
    # degenerate pair ordered by pivot index
    assert np.allclose(es.eigenvectors[:, 0], [0, 1, 0])
    assert np.allclose(es.eigenvectors[:, 1], [0, 0, 1])


def test_eigh_rejects_non_hermitian():
    with pytest.raises(NonHermitianInput):
        linalg.eigh(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(NonHermitianInput):
        linalg.eigh(np.arange(9.0).reshape(3, 3) + 0j)


def test_spectral_map_exp_of_zero():
    assert np.allclose(linalg.spectral_map(np.zeros((2, 2), complex), np.exp), np.eye(2))


def test_spectral_map_exp_diagonal():
    out = linalg.spectral_map(SZ, lambda w: np.exp(-w))
    assert np.allclose(out, np.diag([np.exp(-1.0), np.exp(1.0)]))


def test_spectral_map_log_gibbs_populations():
    p = np.exp(0.5) / (2 * np.cosh(0.5))
    out = linalg.spectral_map(np.diag([p, 1 - p]).astype(complex), np.log)
    assert np.allclose(out, np.diag([np.log(p), np.log(1 - p)]), atol=1e-12)


def test_spectral_map_identity_roundtrip():
    rng = np.random.default_rng(11)
    m = random_hermitian(rng, 5)
    assert np.linalg.norm(linalg.spectral_map(m, lambda w: w) - m) < 1e-11


def test_spectral_map_exp_log_roundtrip():
    # Spectrum within [-20, 20]; the spread is kept below ~15 because the
    # roundtrip error scales with eps * exp(spread) (conditioning of the
    # second eigendecomposition), which crosses 1e-9 near spread 16.
    rng = np.random.default_rng(13)
    for _ in range(10):
        w = rng.uniform(-7.0, 7.0, size=4)
        u = linalg.eigh(random_hermitian(rng, 4)).eigenvectors
        m = (u * w) @ u.conj().T
        assert np.max(np.abs(np.linalg.eigvalsh(m))) < 20
        back = linalg.spectral_map(linalg.spectral_map(m, np.exp), np.log)
        assert np.linalg.norm(back - m) < 1e-9


def test_spectral_map_rejects_nonfinite():
    with pytest.raises(NonFiniteFunctionValue):
        linalg.spectral_map(SZ, np.log)  # log(-1)


def test_trace_product_examples():
    assert linalg.trace_product(np.eye(9), np.eye(9)) == pytest.approx(9.0)
    assert abs(linalg.trace_product(SZ, SX)) < 1e-15
    rho = np.diag([0.7, 0.3]).astype(complex)
    h = np.diag([0.5, -0.5]).astype(complex)
    assert linalg.trace_product(rho, h).real == pytest.approx(0.2)


def test_trace_product_symmetry():
    rng = np.random.default_rng(17)
    for _ in range(10):
        a = random_hermitian(rng, 6)
        b = random_hermitian(rng, 6)
        assert abs(linalg.trace_product(a, b) - linalg.trace_product(b, a)) <= 1e-13


def test_trace_product_matches_full_product():
    rng = np.random.default_rng(19)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    assert linalg.trace_product(a, b) == pytest.approx(complex(np.trace(a @ b)))


def test_trace_product_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        linalg.trace_product(np.eye(2), np.eye(3))

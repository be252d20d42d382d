import numpy as np
import pytest

from landauer_bounds import linalg
from landauer_bounds.errors import NonHermitianInput

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)


def random_hermitian(rng, dim, scale=1.0):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (a + a.conj().T) / 2


def test_eigh_identity():
    w, v = linalg.eigh(np.eye(2, dtype=complex))
    assert np.allclose(w, [1.0, 1.0])
    assert np.allclose(v, np.eye(2))


def test_eigh_sigma_z():
    w, v = linalg.eigh(SZ)
    assert np.allclose(w, [-1.0, 1.0])
    assert np.allclose(v[:, 0], [0, 1])
    assert np.allclose(v[:, 1], [1, 0])


def test_eigh_sigma_x():
    w, v = linalg.eigh(SX)
    assert np.allclose(w, [-1.0, 1.0])
    s = 1 / np.sqrt(2)
    # each eigenvector up to its phase: |<expected|v>| = 1
    assert abs(np.vdot([s, -s], v[:, 0])) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot([s, s], v[:, 1])) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("dim", range(2, 10))
def test_eigh_reconstruction_and_unitarity(dim):
    rng = np.random.default_rng(41 + dim)
    for _ in range(20):
        m = random_hermitian(rng, dim)
        w, v = linalg.eigh(m)
        assert np.all(np.diff(w) >= -1e-12)
        assert np.linalg.norm(v.conj().T @ v - np.eye(dim)) < 1e-12
        assert np.linalg.norm((v * w) @ v.conj().T - m) < 1e-10


def test_eigh_of_a_stack_matches_each_matrix():
    rng = np.random.default_rng(7)
    stack = np.array([random_hermitian(rng, 4) for _ in range(5)])
    w, v = linalg.eigh(stack)
    for m, wi, vi in zip(stack, w, v):
        assert np.allclose(wi, np.linalg.eigvalsh(m), atol=1e-12)
        assert np.linalg.norm((vi * wi) @ vi.conj().T - m) < 1e-10


def test_eigh_rejects_non_hermitian():
    with pytest.raises(NonHermitianInput):
        linalg.eigh(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(NonHermitianInput):
        linalg.eigh(np.arange(9.0).reshape(3, 3) + 0j)

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


def random_qubit_stack(rng, shape, scale):
    a = rng.standard_normal((*shape, 2, 2)) + 1j * rng.standard_normal((*shape, 2, 2))
    return scale * (a + linalg.adjoint(a)) / 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e-20, 1.0, 1e20, 1e150, 1e300])
def test_qubit_closed_form_matches_lapack(scale):
    # 2 x 2 stacks are solved in closed form: eigenvalues within a few ulp of the
    # largest entry modulus of LAPACK's, the same eigenvectors up to phase, and
    # each eigenvector's largest-modulus entry real and positive
    m = random_qubit_stack(np.random.default_rng(17), (40, 25), scale)
    w, v = linalg.eigh(m)
    w_lapack, v_lapack = np.linalg.eigh(m)
    size = np.max(np.abs(m), axis=(-2, -1))[..., None]
    assert np.all(np.abs(w - w_lapack) <= 4e-15 * size)
    assert np.array_equal(linalg.eigvalsh(m), w)
    overlaps = np.abs(np.sum(v_lapack.conj() * v, axis=-2))
    assert np.all(np.abs(overlaps - 1.0) < 1e-14)
    pivots = np.take_along_axis(v, np.argmax(np.abs(v), axis=-2)[..., None, :], axis=-2)
    assert np.all(pivots.imag == 0.0) and np.all(pivots.real > 0.0)
    assert np.all(np.abs(linalg.adjoint(v) @ v - np.eye(2)) < 4e-15)


def test_qubit_small_eigenvalue_keeps_full_precision():
    # mean - hypot(h, |b|) would cancel to 0; det / far keeps the subnormal weight
    m = np.diag([1.0, 1e-313]).astype(complex)
    assert linalg.eigvalsh(m)[0] == 1e-313
    w, v = linalg.eigh(m)
    assert w.tolist() == [1e-313, 1.0]
    assert np.array_equal(v, [[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize("level", [0.0, 1.0, -3.5, 1e-300, 1e300])
def test_qubit_multiple_of_identity_keeps_the_standard_basis(level):
    w, v = linalg.eigh(level * np.eye(2, dtype=complex))
    assert w.tolist() == [level, level]
    assert np.array_equal(v, np.eye(2))


@pytest.mark.parametrize("entry", [(0, 0), (1, 0), (1, 1)])
def test_qubit_nan_entry_gives_nan_outputs(entry):
    # LAPACK puts a NaN in at least one eigenvalue here; the closed form in all
    m = np.eye(2, dtype=complex)
    m[entry] = np.nan
    w, v = linalg.eigh(m)
    assert np.isnan(w).all() and np.isnan(v).all()
    assert np.isnan(linalg.eigvalsh(m)).all()
    assert np.isnan(np.linalg.eigh(m)[0]).any()


def test_qubit_closed_form_reads_the_lower_triangle():
    m = random_qubit_stack(np.random.default_rng(23), (6,), 1.0)
    skewed = m.copy()
    skewed[:, 0, 1] += 5.0 - 2.0j
    assert np.array_equal(linalg.eigvalsh(skewed), linalg.eigvalsh(m))
    assert np.allclose(np.linalg.eigvalsh(skewed), linalg.eigvalsh(m), rtol=0, atol=1e-14)
    nearly = m.copy()
    nearly[:, 0, 1] += 5e-11  # within HERMITICITY_ATOL, so eigh accepts it
    for ours, exact in zip(linalg.eigh(nearly), linalg.eigh(m)):
        assert np.array_equal(ours, exact)


def random_unitary_stack(rng, shape, dim):
    size = (*shape, dim, dim)
    return np.linalg.qr(rng.standard_normal(size) + 1j * rng.standard_normal(size))[0]


def rotate(matmul, a, v):
    return matmul(matmul(linalg.adjoint(v), a), v)


def unrotate(matmul, w, v):
    return matmul(v * w[..., None, :], linalg.adjoint(v))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e-20, 1.0, 1e20, 1e150, 1e300])
def test_qubit_basis_change_matches_matmul(scale):
    # 2 x 2 basis changes multiply in closed form, within 2e-15 of the largest entry
    # modulus of np.matmul's, both ways and broadcast against a single operator
    rng = np.random.default_rng(29)
    a = random_qubit_stack(rng, (40, 25), scale)
    v = random_unitary_stack(rng, (40, 25), 2)
    w = scale * rng.standard_normal((40, 25, 2))
    for ours, exact, size in [
        (rotate(linalg.matmul, a, v), rotate(np.matmul, a, v), np.abs(a).max(axis=(-2, -1))),
        (rotate(linalg.matmul, a[0, 0], v), rotate(np.matmul, a[0, 0], v), np.abs(a[0, 0]).max()),
        (unrotate(linalg.matmul, w, v), unrotate(np.matmul, w, v), np.abs(w).max(axis=-1)),
    ]:
        assert ours.shape == exact.shape
        assert np.all(np.abs(ours - exact) <= 2e-15 * np.asarray(size)[..., None, None])


@pytest.mark.parametrize("dim", [3, 9])
def test_basis_change_of_other_dimensions_is_matmul_bit_for_bit(dim):
    rng = np.random.default_rng(31)
    a = random_hermitian(rng, dim)
    v = random_unitary_stack(rng, (5,), dim)
    w = rng.standard_normal((5, dim))
    assert np.array_equal(rotate(linalg.matmul, a, v), rotate(np.matmul, a, v))
    assert np.array_equal(unrotate(linalg.matmul, w, v), unrotate(np.matmul, w, v))


def test_qubit_times_other_dimension_raises_as_matmul_does():
    for x, y in [(SX, np.eye(3)), (np.eye(3), SX), (SX, np.ones((3, 2))), (np.ones((2, 3)), SX)]:
        with pytest.raises(ValueError):
            np.matmul(x, y)
        with pytest.raises(ValueError):
            linalg.matmul(x, y)


@pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_qubit_basis_change_propagates_nan_as_matmul_does(entry):
    v = np.stack([np.eye(2, dtype=complex), linalg.eigh(SX + 0.3 * SZ)[1]])
    a, bad_v, w = SX.copy(), v.copy(), np.array([[1.0, 2.0], [3.0, 4.0]])
    a[entry] = bad_v[1][entry] = w[entry] = np.nan
    for op, basis in [(a, v), (SX, bad_v)]:
        assert np.array_equal(np.isnan(rotate(linalg.matmul, op, basis)),
                              np.isnan(rotate(np.matmul, op, basis)))
    assert np.array_equal(np.isnan(unrotate(linalg.matmul, w, v)),
                          np.isnan(unrotate(np.matmul, w, v)))

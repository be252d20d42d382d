import math

import numpy as np
import pytest

from landauer_bounds import linalg, qstate, refsolve
from landauer_bounds.models import (
    ErasureParams,
    RydbergParams,
    build_erasure,
    build_rydberg,
    initial_state,
)

QUBIT_H = np.diag([0.5, -0.5]).astype(complex)


def test_rydberg_dark_state_identities():
    model, bell = build_rydberg(RydbergParams())
    h = model.hamiltonian(0.0)
    assert np.linalg.norm(h @ bell) < 1e-12
    for ch in model.channels:
        assert np.linalg.norm(ch.operator(0.0) @ bell) < 1e-12
        assert ch.rate == pytest.approx(0.03 / 2)
    assert model.dim == 9 and not model.driven and len(model.channels) == 4


def test_rydberg_zero_couplings_zero_hamiltonian():
    model, _ = build_rydberg(RydbergParams(omega2=0.0, omega=0.0, gamma=0.01))
    assert np.all(model.hamiltonian(0.0) == 0)


def test_rydberg_rejects_negative_parameters():
    with pytest.raises(ValueError):
        RydbergParams(gamma=-0.1)


def test_erasure_protocol_endpoints():
    p = ErasureParams()
    model = build_erasure(p)
    sz = np.diag([1.0, -1.0]).astype(complex)
    # theta(0) = -pi makes H(0) = -(eps0/2) sigma_z; theta(tau) = 0 makes
    # H(tau) = +(eps_tau/2) sigma_z (up to sin(pi) rounding in float).
    assert np.allclose(model.hamiltonian(0.0), -(p.eps0 / 2) * sz, atol=1e-15)
    assert np.allclose(model.hamiltonian(p.tau), (p.eps_tau / 2) * sz, atol=1e-12)


def test_erasure_instantaneous_spectrum():
    p = ErasureParams()
    model = build_erasure(p)
    for t in np.linspace(0.0, p.tau, 41):
        w = np.linalg.eigvalsh(model.hamiltonian(float(t)))
        eps = p.eps0 + (p.eps_tau - p.eps0) * math.sin(math.pi * t / (2 * p.tau)) ** 2
        assert abs(w[0] + eps / 2) < 1e-12
        assert abs(w[1] - eps / 2) < 1e-12


def test_erasure_occupation_factor():
    # with beta * eps = 1 at t = 0: N_B = 1/(e - 1)
    model = build_erasure(ErasureParams(eps0=1.0, bath_beta=1.0))
    l_up = model.channels[1].operator(0.0)
    n_b = float(np.linalg.norm(l_up) ** 2) / 1.0  # |L2|^2 = eps * N_B, eps = 1
    assert n_b == pytest.approx(1.0 / (math.e - 1.0), abs=1e-12)
    assert n_b == pytest.approx(0.58198, abs=5e-6)


def test_erasure_jump_operators_connect_instantaneous_eigenstates():
    p = ErasureParams()
    model = build_erasure(p)
    for t in (0.0, 3.3, 7.1, p.tau):
        es = linalg.eigh(model.hamiltonian(float(t)))
        ground, excited = es.eigenvectors[:, 0], es.eigenvectors[:, 1]
        eps = float(es.eigenvalues[1] - es.eigenvalues[0])
        n_b = 1.0 / math.expm1(p.bath_beta * eps)
        l_down = model.channels[0].operator(float(t))
        # emission maps the excited state onto the ground state
        assert np.linalg.norm(l_down @ ground) < 1e-12
        amp = np.linalg.norm(l_down @ excited)
        assert amp ** 2 == pytest.approx(eps * (n_b + 1.0), rel=1e-12)


def test_erasure_validates_parameters():
    with pytest.raises(ValueError):
        ErasureParams(tau=0.0)
    with pytest.raises(ValueError):
        ErasureParams(bath_beta=0.0)
    # the closed-form instantaneous eigenbasis needs a positive gap
    for gap in ({"eps0": 0.0}, {"eps0": -0.4}, {"eps_tau": 0.0}):
        with pytest.raises(ValueError):
            ErasureParams(**gap)


def test_initial_state_sorted_flat_distribution_is_maximally_mixed():
    rho = initial_state("sorted_ascending_diagonal", QUBIT_H, beta=0.0)
    assert np.allclose(rho.matrix, np.eye(2) / 2, atol=1e-14)


def test_initial_state_sorted_two_level_populations():
    rho = initial_state("sorted_ascending_diagonal", QUBIT_H, beta=1.0)
    p_hot = math.exp(-0.5) / (2 * math.cosh(0.5))  # 0.2689... on the ground state
    # ascending-energy basis of diag(0.5, -0.5) is (e1, e0)
    assert rho.matrix[1, 1].real == pytest.approx(p_hot, abs=1e-12)
    assert rho.matrix[0, 0].real == pytest.approx(1 - p_hot, abs=1e-12)


def test_initial_state_sorted_preserves_entropy_and_beta():
    model, _ = build_rydberg(RydbergParams())
    h = model.hamiltonian(0.0)
    sorted_state = initial_state("sorted_ascending_diagonal", h, beta=30.0)
    gibbs = initial_state("gibbs", h, beta=30.0)
    s_sorted = qstate.von_neumann_entropy(sorted_state)
    assert s_sorted == pytest.approx(qstate.von_neumann_entropy(gibbs), abs=1e-12)
    res = refsolve.solve_beta(linalg.eigh(h), s_sorted)
    assert abs(res.beta_R - 30.0) < 1e-7


def test_sorted_state_is_local_energy_maximum():
    # ascending populations on ascending energies maximize Tr[H rho] among
    # diagonal rearrangements: any transposition lowers the energy.
    model, _ = build_rydberg(RydbergParams())
    h = model.hamiltonian(0.0)
    w = linalg.eigh(h).eigenvalues
    x = -30.0 * (w - w[0])
    q = np.sort(np.exp(x) / np.exp(x).sum())
    base = float(q @ w)
    for i in range(len(w)):
        for j in range(i + 1, len(w)):
            swapped = q.copy()
            swapped[[i, j]] = swapped[[j, i]]
            assert float(swapped @ w) <= base + 1e-15


def test_initial_state_maximally_mixed_and_pure():
    mm = initial_state("maximally_mixed", np.eye(3, dtype=complex))
    assert np.allclose(mm.matrix, np.eye(3) / 3)
    vec = np.array([1, 1j]) / math.sqrt(2)
    pure = initial_state("pure", vector=vec)
    assert np.allclose(pure.matrix, np.outer(vec, vec.conj()))
    with pytest.raises(ValueError):
        initial_state("bogus", QUBIT_H, beta=1.0)

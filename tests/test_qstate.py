import math

import hypothesis.strategies as hst
import numpy as np
import pytest
from hypothesis import given, settings

from random_cases import degeneracy_patterns, random_hamiltonian, random_state_of_rank

from landauer_bounds import linalg, qstate
from landauer_bounds.errors import InvalidState, NonHermitianInput, UnnormalizedVector

SZ = np.diag([1.0, -1.0]).astype(complex)


def random_state(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = a @ a.conj().T
    return m / np.trace(m).real


def matrix_function(h, f):
    """f(h) of a Hermitian matrix through its eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * f(w)) @ v.conj().T


def diag_state(*populations):
    return np.diag(populations).astype(complex)


def dephase(rho, h):
    """S' and Coh of one state in the energy basis of h, as a one-state stack."""
    w, v = linalg.eigh(h)
    out = qstate.state_functionals(rho[None], np.linalg.eigvalsh(rho)[None], w[None], v[None])
    return out.S_diag[0], out.Coh[0]


def entropy_oracle(rho):
    return -np.trace(rho @ matrix_function(rho, np.log)).real


def dephased_oracle(rho, h):
    """sum_k P_k rho P_k over the eigenspaces P_k of h (eigenvalues within 1e-9 merged)."""
    w, v = np.linalg.eigh(h)
    out = np.zeros_like(rho)
    for level in np.unique(np.round(w, 9)):
        cols = v[:, np.abs(w - level) < 1e-9]
        proj = cols @ cols.conj().T
        out += proj @ rho @ proj
    return out


def test_entropy_pure_state():
    assert qstate.von_neumann_entropy(qstate.pure_state(np.array([1, 0]))) == 0.0


def test_entropy_maximally_mixed():
    assert qstate.von_neumann_entropy(diag_state(0.5, 0.5)) == pytest.approx(math.log(2), abs=1e-12)


def test_entropy_direct_evaluation():
    expected = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))
    assert qstate.von_neumann_entropy(diag_state(0.9, 0.1)) == pytest.approx(expected, abs=1e-12)


def test_entropy_unitary_invariance():
    rng = np.random.default_rng(5)
    for _ in range(10):
        rho = random_state(rng, 5)
        h = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        _, u = linalg.eigh(h + h.conj().T)
        rotated = u @ rho @ u.conj().T
        assert qstate.von_neumann_entropy(rotated) == pytest.approx(
            qstate.von_neumann_entropy(rho), abs=1e-10)


def test_entropy_range():
    rng = np.random.default_rng(23)
    for _ in range(20):
        s = qstate.von_neumann_entropy(random_state(rng, 7))
        assert 0.0 <= s <= math.log(7) + 1e-10


def test_invalid_states_rejected():
    with pytest.raises(InvalidState):
        qstate.require_state(np.diag([0.9, 0.3]).astype(complex))
    with pytest.raises(InvalidState):
        qstate.require_state(np.diag([1.1, -0.1]).astype(complex))
    with pytest.raises(NonHermitianInput):
        qstate.require_state(np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex))
    assert np.array_equal(qstate.require_state(diag_state(0.3, 0.7)), diag_state(0.3, 0.7))


def test_relative_entropy_identical_states():
    rng = np.random.default_rng(29)
    rho = random_state(rng, 4)
    assert abs(qstate.relative_entropy(rho, rho)) < 1e-10


def test_relative_entropy_pure_vs_mixed():
    pure = qstate.pure_state(np.array([1, 0]))
    assert qstate.relative_entropy(pure, diag_state(0.5, 0.5)) == pytest.approx(math.log(2), abs=1e-9)


def test_relative_entropy_direct_evaluation():
    expected = 0.7 * math.log(1.4) + 0.3 * math.log(0.6)
    got = qstate.relative_entropy(diag_state(0.7, 0.3), diag_state(0.5, 0.5))
    assert got == pytest.approx(expected, abs=1e-12)


def test_relative_entropy_klein_inequality():
    rng = np.random.default_rng(31)
    for _ in range(20):
        assert qstate.relative_entropy(random_state(rng, 4), random_state(rng, 4)) >= -1e-9


def test_relative_entropy_singular_reference():
    assert math.isnan(qstate.relative_entropy(diag_state(0.5, 0.5),
                                              qstate.pure_state(np.array([1, 0]))))


def test_relative_entropy_of_states_of_different_dimension_raises():
    for rho, sigma in [(diag_state(0.2, 0.3, 0.5), diag_state(0.5, 0.5)),
                       (diag_state(0.5, 0.5), diag_state(0.2, 0.3, 0.5))]:
        with pytest.raises(ValueError):
            qstate.relative_entropy(rho, sigma)


def test_dephase_diagonal_state_has_no_coherence():
    s_diag, coh = dephase(diag_state(0.3, 0.7), SZ)
    assert abs(coh) < 1e-12
    assert s_diag == pytest.approx(-(0.3 * math.log(0.3) + 0.7 * math.log(0.7)), abs=1e-12)


def test_dephase_plus_state_maximal_coherence():
    plus = qstate.pure_state(np.array([1, 1]) / math.sqrt(2))
    s_diag, coh = dephase(plus, SZ)
    assert s_diag == pytest.approx(math.log(2), abs=1e-12)
    assert coh == pytest.approx(math.log(2), abs=1e-12)


def test_dephase_analytic_two_level():
    rho = np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex)
    s_diag, coh = dephase(rho, SZ)
    s = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
    assert s_diag == pytest.approx(math.log(2), abs=1e-12)
    assert coh == pytest.approx(math.log(2) - s, abs=1e-12)


def test_dephase_degenerate_blocks_keep_internal_coherence():
    # H has a two-fold degenerate level {0, 1}; coherence inside it survives
    # the spectral-block pinching, coherence across distinct levels does not.
    h = np.diag([0.0, 0.0, 1.0]).astype(complex)
    inside = np.array([[0.4, 0.2, 0.0], [0.2, 0.4, 0.0], [0.0, 0.0, 0.2]], dtype=complex)
    _, coh_inside = dephase(inside, h)
    assert abs(coh_inside) < 1e-12
    across = np.array([[0.4, 0.0, 0.2], [0.0, 0.4, 0.0], [0.2, 0.0, 0.2]], dtype=complex)
    _, coh_across = dephase(across, h)
    assert coh_across > 1e-3


def test_coherence_non_negative():
    rng = np.random.default_rng(37)
    for _ in range(20):
        rho = random_state(rng, 5)
        h = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        _, coh = dephase(rho, h + h.conj().T)
        assert coh >= -1e-10


def test_gibbs_infinite_temperature():
    gibbs = qstate.gibbs_state(np.diag(np.arange(9.0)).astype(complex), 0.0)
    assert np.allclose(gibbs, np.eye(9) / 9, atol=1e-14)
    _, log_z = qstate.gibbs_weights(np.arange(9.0), 0.0)
    assert log_z == pytest.approx(math.log(9), abs=1e-12)


@pytest.mark.parametrize("beta", [1e308, -1e308])
def test_gibbs_weights_at_a_beta_whose_exponents_overflow(beta):
    # -beta (E - E_ext) overflows to -inf, a zero weight, with no RuntimeWarning
    p, log_z = qstate.gibbs_weights(np.array([-0.5, 1.5]), beta)
    assert p.tolist() == ([1.0, 0.0] if beta > 0 else [0.0, 1.0])
    assert log_z == -beta * (-0.5 if beta > 0 else 1.5)


def test_gibbs_two_level_closed_form():
    gibbs = qstate.gibbs_state(0.5 * SZ, 1.0)
    p_ground = np.exp(0.5) / (2 * np.cosh(0.5))
    assert gibbs[1, 1].real == pytest.approx(p_ground, abs=1e-12)
    assert gibbs[0, 0].real == pytest.approx(1 - p_ground, abs=1e-12)
    # ln Z consistency: Tr e^{-beta H} = e^{ln Z}
    p, log_z = qstate.gibbs_weights(np.array([-0.5, 0.5]), 1.0)
    assert p[0] == pytest.approx(p_ground, abs=1e-12)
    assert np.trace(matrix_function(-1.0 * 0.5 * SZ, np.exp)).real == pytest.approx(
        math.exp(log_z), rel=1e-10)


def test_gibbs_reconstruction_invariant():
    rng = np.random.default_rng(41)
    h = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = (h + h.conj().T) / 2
    for beta in (0.0, 0.7, 3.0, -1.2):
        direct = matrix_function(h, lambda w: np.exp(-beta * w))
        direct = direct / np.trace(direct).real
        assert np.linalg.norm(qstate.gibbs_state(h, beta) - direct) < 1e-10


def test_gibbs_saturation_flag():
    gibbs = qstate.gibbs_state(0.5 * SZ, 1000.0)
    assert gibbs[1, 1].real == pytest.approx(1.0, abs=1e-12)


def test_gibbs_entropy_decreasing_in_beta():
    rng = np.random.default_rng(43)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (h + h.conj().T) / 2
    entropies = [qstate.von_neumann_entropy(qstate.gibbs_state(h, b))
                 for b in np.linspace(0.0, 4.0, 9)]
    assert all(a > b for a, b in zip(entropies, entropies[1:]))


def test_first_law_identity():
    rng = np.random.default_rng(47)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (h + h.conj().T) / 2
    w, v = linalg.eigh(h)
    for beta in (0.5, 2.0):
        gibbs = qstate.gibbs_state(h, beta)
        free_energy = -qstate.gibbs_weights(w, beta)[1] / beta
        for _ in range(5):
            rho = random_state(rng, 4)
            sm = qstate.state_functionals(rho[None], np.linalg.eigvalsh(rho)[None], w[None],
                                          v[None])
            f_neq = free_energy + qstate.relative_entropy(rho, gibbs) / beta
            assert sm.E_S[0] == pytest.approx((1 / beta) * sm.S[0] + f_neq, abs=1e-8)
            assert sm.Coh[0] >= -1e-10
            assert sm.Coh[0] == pytest.approx(sm.S_diag[0] - sm.S[0], abs=1e-12)


@pytest.mark.parametrize("dim", [2, 3, 4, 9, "degenerate"])
def test_stacked_functionals_match_single_states(dim):
    rng = np.random.default_rng(53)
    if dim == "degenerate":
        hs = [np.diag([0.0, 0.0, 1.0]).astype(complex)] * 6
    else:
        hs = [linalg.hermitian_part(rng.standard_normal((dim, dim))
                                    + 1j * rng.standard_normal((dim, dim))) for _ in range(6)]
    levels, vectors = linalg.eigh(np.array(hs))
    states = np.array([random_state(rng, len(hs[0])) for _ in hs])
    stacked = qstate.state_functionals(states, np.linalg.eigvalsh(states), levels, vectors)
    for i, (rho, h) in enumerate(zip(states, hs)):
        s = entropy_oracle(rho)
        s_diag = entropy_oracle(dephased_oracle(rho, h))
        assert stacked.E_S[i] == pytest.approx(np.trace(h @ rho).real, abs=1e-12)
        assert stacked.S[i] == pytest.approx(s, abs=1e-12)
        assert stacked.S_diag[i] == pytest.approx(s_diag, abs=1e-12)
        assert stacked.Coh[i] == pytest.approx(s_diag - s, abs=1e-12)
        assert stacked.populations[i] == pytest.approx(
            np.diagonal(vectors[i].conj().T @ rho @ vectors[i]).real, abs=1e-15)


@hst.composite
def stacks_with_changing_degeneracy(draw):
    """States of random rank and Hamiltonians of one dimension d <= 4 whose
    degeneracy pattern cycles through two drawn ones and a nondegenerate one."""
    dim = draw(hst.sampled_from([2, 3, 4]))
    patterns = [draw(degeneracy_patterns(dim)), draw(degeneracy_patterns(dim)), [1] * dim]
    rng = np.random.default_rng(draw(hst.integers(0, 2 ** 32 - 1)))
    sizes = [patterns[k % 3] for k in range(draw(hst.integers(1, 9)))]
    hs = np.array([random_hamiltonian(rng, s) for s in sizes])
    states = np.array([random_state_of_rank(rng, dim, int(rng.integers(1, dim + 1)))
                       for _ in sizes])
    return hs, states, sizes


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(stacks_with_changing_degeneracy())
def test_dephased_entropy_matches_masked_matrix(case):
    # S' is read from the populations and the clusters' sub-blocks; the oracle
    # zeroes the coherences between clusters and decomposes the whole matrix
    hs, states, sizes = case
    levels, vectors = linalg.eigh(hs)
    spectra = linalg.eigvalsh(states)  # the spectra propagation computes
    out = qstate.state_functionals(states, spectra, levels, vectors)
    assert np.array_equal(out.S, qstate.von_neumann_entropy(states))
    for k, (rho, v, s) in enumerate(zip(states, vectors, sizes)):
        cluster = np.repeat(np.arange(len(s)), s)
        rotated = v.conj().T @ rho @ v
        masked = np.where(cluster[:, None] == cluster[None, :], rotated, 0.0)
        assert out.S_diag[k] == pytest.approx(qstate.von_neumann_entropy(masked), abs=1e-12)
        assert out.populations[k] == pytest.approx(np.diag(rotated).real, abs=1e-15)


def test_stacked_relative_entropy_matches_single_states():
    rng = np.random.default_rng(59)
    rhos = np.array([random_state(rng, 4) for _ in range(5)])
    sigmas = [random_state(rng, 4) for _ in range(4)]
    sigmas.append(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex))
    stacked = qstate.relative_entropy(rhos, np.array(sigmas))
    for i in range(4):
        log_rho, log_sigma = matrix_function(rhos[i], np.log), matrix_function(sigmas[i], np.log)
        expected = np.trace(rhos[i] @ (log_rho - log_sigma)).real
        assert stacked[i] == pytest.approx(expected, abs=1e-12)
    assert math.isnan(stacked[4])


def test_fidelity_examples():
    psi = np.array([1, 1]) / math.sqrt(2)
    assert qstate.fidelity_pure(qstate.pure_state(psi), psi) == pytest.approx(1.0, abs=1e-12)
    assert qstate.fidelity_pure(diag_state(0.5, 0.5), psi) == pytest.approx(0.5, abs=1e-12)
    assert qstate.fidelity_pure(diag_state(0.7, 0.3), psi) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(UnnormalizedVector):
        qstate.fidelity_pure(diag_state(0.5, 0.5), np.array([1, 1]))


def test_levels_closer_than_the_degeneracy_tolerance_form_one_cluster():
    # DEGENERACY_ATOL is 1e-9 of max(1, max |E|): 1e-7 apart are two levels, 1e-10 one
    assert qstate.level_clusters(np.array([0.5, 0.5 + 1e-7])).tolist() == [0, 1]
    assert qstate.level_clusters(np.array([0.5, 0.5 + 1e-10])).tolist() == [0, 0]

import math

import numpy as np
import pytest

from landauer_bounds import linalg, qstate
from landauer_bounds.errors import InvalidState, SingularReference, UnnormalizedVector
from landauer_bounds.qstate import DensityMatrix

SZ = np.diag([1.0, -1.0]).astype(complex)


def random_state(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = a @ a.conj().T
    return DensityMatrix.from_matrix(m / np.trace(m).real)


def diag_state(*populations):
    return DensityMatrix.from_matrix(np.diag(populations).astype(complex))


def test_entropy_pure_state():
    assert qstate.von_neumann_entropy(DensityMatrix.pure(np.array([1, 0]))) == 0.0


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
        u = linalg.eigh(h + h.conj().T).eigenvectors
        rotated = DensityMatrix.from_matrix(u @ rho.matrix @ u.conj().T)
        assert qstate.von_neumann_entropy(rotated) == pytest.approx(
            qstate.von_neumann_entropy(rho), abs=1e-10)


def test_entropy_range():
    rng = np.random.default_rng(23)
    for _ in range(20):
        s = qstate.von_neumann_entropy(random_state(rng, 7))
        assert 0.0 <= s <= math.log(7) + 1e-10


def test_invalid_states_rejected():
    with pytest.raises(InvalidState):
        DensityMatrix.from_matrix(np.diag([0.9, 0.3]).astype(complex))
    with pytest.raises(InvalidState):
        DensityMatrix.from_matrix(np.diag([1.1, -0.1]).astype(complex))


def test_relative_entropy_identical_states():
    rng = np.random.default_rng(29)
    rho = random_state(rng, 4)
    assert abs(qstate.relative_entropy(rho, rho)) < 1e-10


def test_relative_entropy_pure_vs_mixed():
    pure = DensityMatrix.pure(np.array([1, 0]))
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
    with pytest.raises(SingularReference):
        qstate.relative_entropy(diag_state(0.5, 0.5), DensityMatrix.pure(np.array([1, 0])))


def test_dephase_diagonal_state_has_no_coherence():
    s_diag, coh = qstate.dephase_and_coherence(diag_state(0.3, 0.7), linalg.eigh(SZ))
    assert abs(coh) < 1e-12
    assert s_diag == pytest.approx(-(0.3 * math.log(0.3) + 0.7 * math.log(0.7)), abs=1e-12)


def test_dephase_plus_state_maximal_coherence():
    plus = DensityMatrix.pure(np.array([1, 1]) / math.sqrt(2))
    s_diag, coh = qstate.dephase_and_coherence(plus, linalg.eigh(SZ))
    assert s_diag == pytest.approx(math.log(2), abs=1e-12)
    assert coh == pytest.approx(math.log(2), abs=1e-12)


def test_dephase_analytic_two_level():
    rho = DensityMatrix.from_matrix(np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex))
    s_diag, coh = qstate.dephase_and_coherence(rho, linalg.eigh(SZ))
    s = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
    assert s_diag == pytest.approx(math.log(2), abs=1e-12)
    assert coh == pytest.approx(math.log(2) - s, abs=1e-12)


def test_dephase_degenerate_blocks_keep_internal_coherence():
    # H has a two-fold degenerate level {0, 1}; coherence inside it survives
    # the spectral-block pinching, coherence across distinct levels does not.
    h = np.diag([0.0, 0.0, 1.0]).astype(complex)
    basis = linalg.eigh(h)
    inside = np.array([[0.4, 0.2, 0.0], [0.2, 0.4, 0.0], [0.0, 0.0, 0.2]], dtype=complex)
    _, coh_inside = qstate.dephase_and_coherence(DensityMatrix.from_matrix(inside), basis)
    assert abs(coh_inside) < 1e-12
    across = np.array([[0.4, 0.0, 0.2], [0.0, 0.4, 0.0], [0.2, 0.0, 0.2]], dtype=complex)
    _, coh_across = qstate.dephase_and_coherence(DensityMatrix.from_matrix(across), basis)
    assert coh_across > 1e-3


def test_coherence_non_negative():
    rng = np.random.default_rng(37)
    for _ in range(20):
        rho = random_state(rng, 5)
        h = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        _, coh = qstate.dephase_and_coherence(rho, linalg.eigh(h + h.conj().T))
        assert coh >= -1e-10


def test_gibbs_infinite_temperature():
    ref = qstate.gibbs_state(np.diag(np.arange(9.0)).astype(complex), 0.0)
    assert np.allclose(ref.gibbs.matrix, np.eye(9) / 9, atol=1e-14)
    assert ref.log_Z == pytest.approx(math.log(9), abs=1e-12)
    assert not ref.saturated


def test_gibbs_two_level_closed_form():
    ref = qstate.gibbs_state(0.5 * SZ, 1.0)
    p_ground = np.exp(0.5) / (2 * np.cosh(0.5))
    assert ref.gibbs.matrix[1, 1].real == pytest.approx(p_ground, abs=1e-12)
    assert ref.gibbs.matrix[0, 0].real == pytest.approx(1 - p_ground, abs=1e-12)
    # log_Z consistency: Tr e^{-beta H} = e^{log_Z}
    assert np.trace(linalg.spectral_map(-1.0 * 0.5 * SZ, np.exp)).real == pytest.approx(
        math.exp(ref.log_Z), rel=1e-10)
    assert ref.free_energy == pytest.approx(-ref.log_Z, abs=1e-12)


def test_gibbs_reconstruction_invariant():
    rng = np.random.default_rng(41)
    h = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = (h + h.conj().T) / 2
    for beta in (0.0, 0.7, 3.0, -1.2):
        ref = qstate.gibbs_state(h, beta)
        direct = linalg.spectral_map(h, lambda w: np.exp(-beta * w))
        direct = direct / np.trace(direct).real
        assert np.linalg.norm(ref.gibbs.matrix - direct) < 1e-10


def test_gibbs_saturation_flag():
    ref = qstate.gibbs_state(0.5 * SZ, 1000.0)
    assert ref.saturated
    assert ref.gibbs.matrix[1, 1].real == pytest.approx(1.0, abs=1e-12)


def test_gibbs_entropy_decreasing_in_beta():
    rng = np.random.default_rng(43)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (h + h.conj().T) / 2
    entropies = [qstate.von_neumann_entropy(qstate.gibbs_state(h, b).gibbs)
                 for b in np.linspace(0.0, 4.0, 9)]
    assert all(a > b for a, b in zip(entropies, entropies[1:]))


def test_first_law_identity():
    rng = np.random.default_rng(47)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (h + h.conj().T) / 2
    basis = linalg.eigh(h)
    for beta in (0.5, 2.0):
        ref = qstate.gibbs_state(h, beta)
        for _ in range(5):
            rho = random_state(rng, 4)
            sm = qstate.state_functionals(0.0, rho.matrix, basis.eigenvalues, basis.eigenvectors)
            f_neq = ref.free_energy + qstate.relative_entropy(rho, ref.gibbs) / beta
            assert sm.E_S == pytest.approx((1 / beta) * sm.S + f_neq, abs=1e-8)
            assert sm.Coh >= -1e-10
            assert sm.Coh == pytest.approx(sm.S_diag - sm.S, abs=1e-12)


@pytest.mark.parametrize("dim", [2, 3, 4, 9, "degenerate"])
def test_stacked_functionals_match_single_states(dim):
    rng = np.random.default_rng(53)
    if dim == "degenerate":
        hs = [np.diag([0.0, 0.0, 1.0]).astype(complex)] * 6
    else:
        hs = [linalg.hermitian_part(rng.standard_normal((dim, dim))
                                    + 1j * rng.standard_normal((dim, dim))) for _ in range(6)]
    bases = [linalg.eigh(h) for h in hs]
    states = [random_state(rng, len(hs[0])) for _ in hs]
    stacked = qstate.state_functionals(
        np.arange(6.0), np.array([st.matrix for st in states]),
        np.array([b.eigenvalues for b in bases]), np.array([b.eigenvectors for b in bases]))
    for i, (rho, basis, h) in enumerate(zip(states, bases, hs)):
        s_diag, coh = qstate.dephase_and_coherence(rho, basis)
        assert stacked.t[i] == i
        assert stacked.E_S[i] == pytest.approx(linalg.trace_product(h, rho.matrix).real, abs=1e-12)
        assert stacked.S[i] == pytest.approx(qstate.von_neumann_entropy(rho), abs=1e-12)
        assert stacked.S_diag[i] == pytest.approx(s_diag, abs=1e-12)
        assert stacked.Coh[i] == pytest.approx(coh, abs=1e-12)


def test_stacked_relative_entropy_matches_single_states():
    rng = np.random.default_rng(59)
    rhos = [random_state(rng, 4) for _ in range(5)]
    sigmas = [random_state(rng, 4) for _ in range(4)]
    sigmas.append(DensityMatrix.from_matrix(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)))
    stacked = qstate.relative_entropies(np.array([r.matrix for r in rhos]),
                                        np.array([s.matrix for s in sigmas]))
    for i in range(4):
        assert stacked[i] == pytest.approx(qstate.relative_entropy(rhos[i], sigmas[i]), abs=1e-12)
    assert math.isnan(stacked[4])
    with pytest.raises(SingularReference):
        qstate.relative_entropy(rhos[4], sigmas[4])


def test_fidelity_examples():
    psi = np.array([1, 1]) / math.sqrt(2)
    assert qstate.fidelity_pure(DensityMatrix.pure(psi), psi) == pytest.approx(1.0, abs=1e-12)
    assert qstate.fidelity_pure(diag_state(0.5, 0.5), psi) == pytest.approx(0.5, abs=1e-12)
    assert qstate.fidelity_pure(diag_state(0.7, 0.3), psi) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(UnnormalizedVector):
        qstate.fidelity_pure(diag_state(0.5, 0.5), np.array([1, 1]))

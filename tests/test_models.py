import math
import tracemalloc

import hypothesis.strategies as hst
import numpy as np
import pytest
from hypothesis import assume, given, settings

from landauer_bounds import linalg, models, qstate, refsolve
from landauer_bounds.errors import DarkStateViolation
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
    h = model.hamiltonian_protocol(0.0)
    assert np.linalg.norm(h @ bell) < 1e-12
    for ch in model.channels:
        assert np.linalg.norm(ch.operator_protocol(0.0) @ bell) < 1e-12
        assert ch.rate == pytest.approx(0.03 / 2)
    assert model.dim == 9 and not model.driven and len(model.channels) == 4


def test_rydberg_zero_couplings_zero_hamiltonian():
    model, _ = build_rydberg(RydbergParams(omega2=0.0, omega=0.0, gamma=0.01))
    assert np.all(model.hamiltonian_protocol(0.0) == 0)


@pytest.mark.parametrize("omega", [1e5, 1e8, 1e300])
def test_rydberg_dark_state_is_checked_relative_to_the_operator(monkeypatch, omega):
    # the round-off of H @ bell grows with omega; an absolute 1e-12 refused 1e5
    model, _ = build_rydberg(RydbergParams(omega=omega))
    assert model.dim == 9
    # one sign flipped in the omega term (|00><b| -> -|00><b|) makes |b> bright
    dyad = models._dyad
    monkeypatch.setattr(models, "_dyad",
                        lambda i, j: -dyad(i, j) if (i, j) in {(0, 1), (0, 3)} else dyad(i, j))
    with pytest.raises(DarkStateViolation, match="^H does not annihilate the Bell state$"):
        build_rydberg(RydbergParams(omega=omega))


def test_rydberg_rejects_negative_parameters():
    with pytest.raises(ValueError):
        RydbergParams(gamma=-0.1)


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("params, field", [
    (RydbergParams, "omega2"), (RydbergParams, "omega"), (RydbergParams, "gamma"),
    (ErasureParams, "eps0"), (ErasureParams, "eps_tau"), (ErasureParams, "tau"),
    (ErasureParams, "gamma"), (ErasureParams, "bath_beta"),
], ids=lambda p: p if isinstance(p, str) else p.__name__)
def test_non_finite_parameters_are_refused_by_name(params, field, value):
    # NaN passes every `< 0` check, and a NaN or infinite rate or gap would
    # only fail later, inside the linear algebra of propagate
    with pytest.raises(ValueError, match=rf"^{field} must be finite and >=? 0, got {value}$"):
        params(**{field: value})


def test_erasure_protocol_endpoints():
    p = ErasureParams()
    model = build_erasure(p)
    sz = np.diag([1.0, -1.0]).astype(complex)
    # theta(0) = -pi makes H(0) = -(eps0/2) sigma_z; theta(tau) = 0 makes
    # H(tau) = +(eps_tau/2) sigma_z (up to sin(pi) rounding in float).
    assert np.allclose(model.hamiltonian_protocol(0.0), -(p.eps0 / 2) * sz, atol=1e-15)
    assert np.allclose(model.hamiltonian_protocol(p.tau), (p.eps_tau / 2) * sz, atol=1e-12)


def test_erasure_instantaneous_spectrum():
    p = ErasureParams()
    model = build_erasure(p)
    for t in np.linspace(0.0, p.tau, 41):
        w = np.linalg.eigvalsh(model.hamiltonian_protocol(float(t)))
        eps = p.eps0 + (p.eps_tau - p.eps0) * math.sin(math.pi * t / (2 * p.tau)) ** 2
        assert abs(w[0] + eps / 2) < 1e-12
        assert abs(w[1] - eps / 2) < 1e-12


def test_erasure_occupation_factor():
    # with beta * eps = 1 at t = 0: N_B = 1/(e - 1)
    model = build_erasure(ErasureParams(eps0=1.0, bath_beta=1.0))
    l_up = model.channels[1].operator_protocol(0.0)
    n_b = float(np.linalg.norm(l_up) ** 2) / 1.0  # |L2|^2 = eps * N_B, eps = 1
    assert n_b == pytest.approx(1.0 / (math.e - 1.0), abs=1e-12)
    assert n_b == pytest.approx(0.58198, abs=5e-6)


def test_erasure_occupation_factor_once_its_exponential_overflows():
    # e^{beta eps} overflows past beta eps ~ 709: N_B = 0 and no RuntimeWarning
    model = build_erasure(ErasureParams(bath_beta=1e300))
    assert np.all(model.channels[1].operator_protocol(np.linspace(0.0, 10.0, 5)) == 0.0)
    assert np.all(np.isfinite(model.channels[0].operator_protocol(0.0)))


def test_erasure_jump_operators_connect_instantaneous_eigenstates():
    p = ErasureParams()
    model = build_erasure(p)
    for t in (0.0, 3.3, 7.1, p.tau):
        w, v = linalg.eigh(model.hamiltonian_protocol(float(t)))
        ground, excited = v[:, 0], v[:, 1]
        eps = float(w[1] - w[0])
        n_b = 1.0 / math.expm1(p.bath_beta * eps)
        l_down = model.channels[0].operator_protocol(float(t))
        # emission maps the excited state onto the ground state
        assert np.linalg.norm(l_down @ ground) < 1e-12
        amp = np.linalg.norm(l_down @ excited)
        assert amp ** 2 == pytest.approx(eps * (n_b + 1.0), rel=1e-12)


def test_erasure_protocols_share_terms_only_between_equal_times():
    # The four protocols reuse eps, theta and their sines and cosines from the
    # last times they saw; a buffer refilled in place must not read stale terms.
    p = ErasureParams()

    def protocols(model):
        return [model.hamiltonian_protocol, model.hamiltonian_rate_protocol,
                *(ch.operator_protocol for ch in model.channels)]

    shared = protocols(build_erasure(p))
    times = np.linspace(0.0, p.tau, 9)
    for fill in (np.linspace(1.0, 2.0, 9), np.linspace(0.0, p.tau, 9)):
        for protocol in shared:
            protocol(times)
        times[:] = fill
        for k, protocol in enumerate(shared):
            assert np.array_equal(protocol(times), protocols(build_erasure(p))[k](fill))
    for t in (0.0, 3.5, 3.5, p.tau):
        for k, protocol in enumerate(shared):
            assert np.array_equal(protocol(t), protocols(build_erasure(p))[k](t))


def test_erasure_terms_are_dropped_with_their_times():
    # A sweep keeps every entry's model until it ends; a model whose run is over
    # must not keep the terms of the last times it saw.
    model = build_erasure(ErasureParams())
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        times = np.linspace(0.0, 10.0, 100_000)  # 0.8 MB
        for protocol in (model.hamiltonian_protocol, model.channels[0].operator_protocol):
            protocol(times)
        held = tracemalloc.get_traced_memory()[0] - base
        del times
        left = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held > 7 * 800_000  # the times, their copy and six term vectors
    assert left < 10_000


@pytest.mark.parametrize("params", [{"eps0": 1e-300, "bath_beta": 1e-300},
                                    {"eps_tau": 1e-310, "bath_beta": 1.0},
                                    {"bath_beta": 1e-310}],
                         ids=["underflow", "subnormal-gap", "subnormal-beta"])
def test_erasure_refuses_a_bath_coupling_that_overflows(params):
    # beta eps underflowing to 0 made N_B = inf, and sqrt(eps N_B) times the
    # zero imaginary parts of the dyads NaN, with a RuntimeWarning
    with pytest.raises(ValueError, match=r"^bath_beta .* makes the bath coupling eps \(N_B \+ 1\)"):
        ErasureParams(**params)


def test_erasure_operators_are_finite_at_the_smallest_accepted_coupling():
    # the smallest gap and bath beta whose couplings stay finite
    model = build_erasure(ErasureParams(eps0=1e-300, bath_beta=1e-8))
    for channel in model.channels:
        assert np.all(np.isfinite(channel.operator_protocol(np.linspace(0.0, 10.0, 5))))


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
    assert np.allclose(rho, np.eye(2) / 2, atol=1e-14)


def test_initial_state_sorted_two_level_populations():
    rho = initial_state("sorted_ascending_diagonal", QUBIT_H, beta=1.0)
    p_hot = math.exp(-0.5) / (2 * math.cosh(0.5))  # 0.2689... on the ground state
    # ascending-energy basis of diag(0.5, -0.5) is (e1, e0)
    assert rho[1, 1].real == pytest.approx(p_hot, abs=1e-12)
    assert rho[0, 0].real == pytest.approx(1 - p_hot, abs=1e-12)


def test_initial_state_sorted_preserves_entropy_and_beta():
    model, _ = build_rydberg(RydbergParams())
    h = model.hamiltonian_protocol(0.0)
    sorted_state = initial_state("sorted_ascending_diagonal", h, beta=30.0)
    gibbs = initial_state("gibbs", h, beta=30.0)
    s_sorted = qstate.von_neumann_entropy(sorted_state)
    assert s_sorted == pytest.approx(qstate.von_neumann_entropy(gibbs), abs=1e-12)
    res = refsolve.solve_beta(np.linalg.eigvalsh(h), s_sorted)
    assert abs(res.beta_R - 30.0) < 1e-7


def test_sorted_state_is_local_energy_maximum():
    # ascending populations on ascending energies maximize Tr[H rho] among
    # diagonal rearrangements: any transposition lowers the energy.
    model, _ = build_rydberg(RydbergParams())
    h = model.hamiltonian_protocol(0.0)
    w, _ = linalg.eigh(h)
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
    assert np.allclose(mm, np.eye(3) / 3)
    vec = np.array([1, 1j]) / math.sqrt(2)
    pure = initial_state("pure", vector=vec)
    assert np.allclose(pure, np.outer(vec, vec.conj()))
    with pytest.raises(ValueError):
        initial_state("bogus", QUBIT_H, beta=1.0)


@pytest.mark.parametrize("h0, beta", [
    (QUBIT_H, math.nan), (QUBIT_H, math.inf), (QUBIT_H, -math.inf), (QUBIT_H, None), (None, 1.0),
], ids=["beta-nan", "beta-inf", "beta-minus-inf", "beta-missing", "h0-missing"])
@pytest.mark.parametrize("kind", ["gibbs", "sorted_ascending_diagonal"])
def test_gibbs_based_states_share_one_beta_rule(kind, h0, beta):
    # the sorted start is the Gibbs populations re-sorted, so it needs what
    # the Gibbs state needs; a NaN beta would give an all-NaN matrix
    with pytest.raises(ValueError, match=rf"^{kind} initial state needs h0 and a finite beta"):
        initial_state(kind, h0, beta=beta)


def random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@hst.composite
def mirrored_degenerate_hamiltonians(draw):
    """H = U diag(c - a, [c,] c + a) U^dagger with offsets a from {0, 0.7, 1.3} and
    at least one degenerate level, a random unitary U, a random unitary W and beta."""
    dim = draw(hst.sampled_from([2, 3, 4]))
    offsets = np.array(draw(hst.lists(hst.sampled_from([0.0, 0.7, 1.3]),
                                      min_size=dim // 2, max_size=dim // 2)))
    center = draw(hst.floats(-2.0, 2.0))
    levels = np.sort(np.concatenate([center - offsets, [center] * (dim % 2), center + offsets]))
    assume(qstate.has_degenerate_spectrum(levels))
    rng = np.random.default_rng(draw(hst.integers(0, 2 ** 32 - 1)))
    u, w = random_unitary(rng, dim), random_unitary(rng, dim)
    return linalg.hermitian_part((u * levels) @ u.conj().T), w, draw(hst.floats(-3.0, 3.0))


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(mirrored_degenerate_hamiltonians())
def test_initial_states_do_not_depend_on_the_eigenbasis(case):
    h, w, beta = case
    rotated_h = linalg.hermitian_part(w @ h @ w.conj().T)
    for kind in ("gibbs", "sorted_ascending_diagonal"):
        rho = initial_state(kind, h, beta=beta)
        rotated = initial_state(kind, rotated_h, beta=beta)
        assert np.max(np.abs(rotated - w @ rho @ w.conj().T)) < 1e-12
    assert qstate.von_neumann_entropy(initial_state("sorted_ascending_diagonal", h, beta=beta)) \
        == pytest.approx(qstate.von_neumann_entropy(initial_state("gibbs", h, beta=beta)), abs=1e-12)


def test_sorted_state_is_refused_where_a_degenerate_level_needs_a_basis():
    # diag(0, 0, 1) at beta = 1: the degenerate level would get populations 0.155 and 0.422
    with pytest.raises(ValueError, match="degenerate level"):
        initial_state("sorted_ascending_diagonal", np.diag([0.0, 0.0, 1.0]), beta=1.0)
    # at beta = 0 every population is 1/3, so there is nothing to choose
    rho = initial_state("sorted_ascending_diagonal", np.diag([0.0, 0.0, 1.0]), beta=0.0)
    assert np.allclose(rho, np.eye(3) / 3, atol=1e-15)

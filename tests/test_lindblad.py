import contextlib
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from full_width import states_of
from hypothesis import given, settings
from random_cases import random_lindbladians

from landauer_bounds import linalg, lindblad, models, qstate
from landauer_bounds.errors import InvalidState, NonHermitianInput, StabilityError
from landauer_bounds.lindblad import (
    JumpChannel,
    LindbladModel,
    augmented_generators,
    density_matrices,
    hermitian_coordinates,
    propagate,
    steps_per_block,
)

SZ = np.diag([1.0, -1.0]).astype(complex)
LOWER = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|


@pytest.mark.parametrize("rate", [math.nan, math.inf, -0.1])
def test_channel_rate_must_be_finite_and_non_negative(rate):
    with pytest.raises(ValueError, match=rf"^channel rate must be finite and >= 0, got {rate}$"):
        JumpChannel.constant(rate, LOWER)


def zero_rate(t):
    """dH/dt of a constant Hamiltonian, for driven clones of undriven models."""
    return np.zeros((2, 2))


def amplitude_damping_model(eps=1.0, gamma=0.2):
    h = 0.5 * eps * SZ
    return LindbladModel(
        dim=2,
        hamiltonian_protocol=lambda t: h,
        channels=(JumpChannel.constant(gamma, LOWER),),
    )


def excited_state():
    return np.diag([0.0, 1.0]).astype(complex)


def test_generator_stationary_eigenstate():
    model = LindbladModel(dim=2, hamiltonian_protocol=lambda t: SZ, channels=())
    out = generator(model, 0.0, qstate.pure_state(np.array([1, 0])))
    assert np.max(np.abs(out)) < 1e-14


def test_generator_pure_decay_algebra():
    gamma = 0.37
    model = LindbladModel(
        dim=2, hamiltonian_protocol=lambda t: np.zeros((2, 2), complex),
        channels=(JumpChannel.constant(gamma, LOWER),))
    out = generator(model, 0.0, excited_state())
    assert np.allclose(out, gamma * np.diag([1.0, -1.0]), atol=1e-14)


def test_generator_is_traceless_hermitian(rydberg):
    model, _ = rydberg
    rng = np.random.default_rng(11)
    a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    m = a @ a.conj().T
    rho = m / np.trace(m).real
    out = generator(model, 0.0, rho)
    assert abs(np.trace(out)) < 1e-12
    assert np.max(np.abs(out - out.conj().T)) < 1e-11


def test_generator_dark_state_is_stationary(rydberg):
    model, bell = rydberg
    out = generator(model, 0.0, qstate.pure_state(bell))
    assert np.max(np.abs(out)) < 1e-12


def test_propagate_zero_generator():
    model = LindbladModel(dim=2, hamiltonian_protocol=lambda t: np.zeros((2, 2), complex),
                          channels=())
    rho0 = np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex)
    traj = propagate(model, rho0, 1.0, 0.01, 5)
    for st in states_of(traj):
        assert np.allclose(st, rho0, atol=1e-14)
    assert np.all(traj.heat == 0.0)
    assert np.all(traj.work == 0.0)


def test_propagate_amplitude_damping_oracle():
    gamma = 0.2
    traj = propagate(amplitude_damping_model(gamma=gamma), excited_state(), 10.0, 1e-3, 21)
    for t, st in zip(traj.times, states_of(traj)):
        assert st[1, 1].real == pytest.approx(math.exp(-gamma * t), abs=1e-9)
        assert abs(st[0, 1]) < 1e-14
    # undriven accounting: Q = -dE at every sample
    e = np.array([float(np.trace(st @ (0.5 * SZ)).real) for st in states_of(traj)])
    assert np.max(np.abs(traj.heat - (e[0] - e))) < 1e-12


def test_rk4_order_against_analytic_solution():
    gamma = 0.2
    model = amplitude_damping_model(gamma=gamma)

    def max_err(dt):
        traj = propagate(model, excited_state(), 5.0, dt, 6)
        return max(abs(st[1, 1].real - math.exp(-gamma * t))
                   for t, st in zip(traj.times, states_of(traj)))

    with pytest.warns(UserWarning, match="accuracy may degrade"):
        coarse = max_err(0.1)
    ratio = coarse / max_err(0.05)
    assert ratio >= 15.0


def test_constant_and_generic_paths_agree():
    const = amplitude_damping_model()
    # the clone takes the driven path: step maps built per step from protocols
    driven_clone = dataclasses.replace(const, hamiltonian_rate_protocol=zero_rate)
    a = propagate(const, excited_state(), 2.0, 0.01, 9)
    b = propagate(driven_clone, excited_state(), 2.0, 0.01, 9)
    for sa, sb in zip(states_of(a), states_of(b)):
        assert np.max(np.abs(sa - sb)) < 1e-13
    assert np.max(np.abs(a.heat - b.heat)) < 1e-13
    assert np.max(np.abs(b.work)) < 1e-13


def test_driven_energy_balance(erasure):
    rho0 = models.initial_state("gibbs", erasure.hamiltonian_protocol(0.0), beta=1.0)
    traj = propagate(erasure, rho0, 2.0, 1e-3, 21)
    h_t = [erasure.hamiltonian_protocol(float(t)) for t in traj.times]
    e = np.array([float(np.trace(st @ h).real) for st, h in zip(states_of(traj), h_t)])
    assert np.max(np.abs((e - e[0]) - (traj.work - traj.heat))) < 1e-8


def test_hamiltonian_rate_analytic_vs_finite_difference(erasure):
    # central difference of H(t) with step 1e-6 tau
    ham, step = erasure.hamiltonian_protocol, 1e-6 * models.ErasureParams().tau
    for t in (2.5, 5.0, 7.5):
        fd = (ham(t + step) - ham(t - step)) / (2.0 * step)
        assert np.max(np.abs(erasure.hamiltonian_rate_protocol(t) - fd)) < 1e-7


def test_hamiltonian_rate_at_protocol_start(erasure):
    # eps-ramp rate vanishes at t = 0, leaving only the axis rotation:
    # dH/dt(0) = (eps0/2) * (pi/tau) * (-sin(-pi) sz + cos(-pi) sx) = -(eps0 pi / 2 tau) sx
    params = models.ErasureParams()
    expected = -(params.eps0 / 2.0) * (math.pi / params.tau) * np.array(
        [[0, 1], [1, 0]], dtype=complex)
    assert np.allclose(erasure.hamiltonian_rate_protocol(0.0), expected, atol=1e-15)


def test_propagate_rejects_absurd_step():
    with pytest.raises(StabilityError), pytest.warns(UserWarning, match="accuracy may degrade"):
        propagate(amplitude_damping_model(), excited_state(), 50.0, 50.0, 2)


def test_unstable_run_names_its_first_sample_with_norm_above_10():
    # Only H = diag(1, -1): each RK4 step of dt = 20 multiplies the coherence of
    # |+> by |R(40i)| ~ 1e5, so the state overflows long before sample 400.
    model = LindbladModel(dim=2, hamiltonian_protocol=lambda t: SZ, channels=(),
                          hamiltonian_rate_protocol=zero_rate)
    plus = np.full((2, 2), 0.5, dtype=complex)
    with pytest.warns(UserWarning, match="accuracy may degrade") as caught:
        with pytest.raises(StabilityError, match=r"^state norm 7\.524e\+04 at t=20\.0$"):
            propagate(model, plus, 20.0 * 400, 20.0, 401)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def scale_step_maps(monkeypatch, eps):
    """Make every RK4 step map scale rho by 1 + eps: it then changes the trace of a
    unit-norm qubit state by up to eps sqrt(2)."""
    step_maps = lindblad._rk4_step_maps

    def scaled(*args):
        maps = step_maps(*args)
        maps[:, :4, :4] *= 1.0 + eps
        return maps

    monkeypatch.setattr(lindblad, "_rk4_step_maps", scaled)


def test_cumulative_trace_drift_sums_the_per_sample_corrections(monkeypatch):
    # Step maps that scale rho by 1 + eps leave a trace (1 + eps)^gap at each
    # sample, which renormalizing there would remove. Q, whose increments are
    # divided by the previous sample's trace, stays within 1e-9 of the unscaled run
    # (the run that does not divide them is 6.3e-9 off).
    eps, model, rho0 = 1e-10, amplitude_damping_model(), excited_state()
    cases = (model, dataclasses.replace(model, hamiltonian_rate_protocol=zero_rate))
    unscaled = [propagate(case, rho0, 3.07, 0.01, 31) for case in cases]
    scale_step_maps(monkeypatch, eps)
    for case, exact in zip(cases, unscaled):
        traj = propagate(case, rho0, 3.07, 0.01, 31)
        assert np.max(np.abs(traj.heat - exact.heat)) < 1e-9
        gaps = np.diff(np.rint(traj.times / traj.dt))
        assert np.sum(traj.trace_drifts) == pytest.approx(np.sum((1.0 + eps) ** gaps - 1.0),
                                                          rel=1e-6)
        assert np.allclose(np.trace(states_of(traj), axis1=1, axis2=2), 1.0, rtol=0, atol=1e-15)


@pytest.mark.parametrize("driven", [False, True])
def test_step_map_that_drifts_the_trace_by_1e_5_is_refused(monkeypatch, driven):
    scale_step_maps(monkeypatch, 1e-5 / 2 ** 0.5)
    model = amplitude_damping_model()
    if driven:
        model = dataclasses.replace(model, hamiltonian_rate_protocol=zero_rate)
    with pytest.raises(StabilityError, match=r"^trace drift up to 1\.000e-05 in one step at t="):
        propagate(model, excited_state(), 3.0, 0.01, 31)


def test_undriven_step_map_just_past_rk4s_stability_edge_is_refused():
    # H = diag(1, -1) turns the coherences at frequency 2, and RK4's amplification
    # |R(2i dt)| crosses 1 at 2 dt = sqrt(8); just past it, it is 1 + 1.0e-6.
    dt = 2 ** 0.5 * (1.0 + 1.41e-7)
    z = 2j * dt
    assert abs(1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24) == pytest.approx(1 + 1.0e-6,
                                                                             rel=1e-8)
    model = LindbladModel(dim=2, hamiltonian_protocol=lambda t: SZ, channels=())
    plus = np.full((2, 2), 0.5, dtype=complex)
    with pytest.warns(UserWarning, match="accuracy may degrade"):
        with pytest.raises(StabilityError, match=r"^step map spectral radius 1\.000001\d* > 1"):
            propagate(model, plus, 10 * dt, dt, 11)


def test_propagate_validates_arguments():
    model = amplitude_damping_model()
    with pytest.raises(ValueError):
        propagate(model, excited_state(), 1.0, -0.1, 5)
    with pytest.raises(ValueError):
        propagate(model, excited_state(), 1.0, 0.1, 1)
    with pytest.raises(ValueError):
        propagate(model, excited_state(), 1.0, 0.5, 9)  # more samples than steps
    with pytest.raises(ValueError, match=r"^t_end / dt = inf steps must fit in int64"):
        propagate(model, excited_state(), 1e300, 1e-300, 5)
    with pytest.raises(ValueError, match=r"^dt must be positive and finite, got nan$"):
        propagate(model, excited_state(), 1.0, math.nan, 5)


@pytest.mark.parametrize("rho0, error", [
    (np.diag([0.6, 0.5]), InvalidState),  # trace 1.1
    (np.diag([1.1, -0.1]), InvalidState),  # eigenvalue -0.1
    (np.array([[0.5, 0.2], [0.0, 0.5]]), NonHermitianInput),
], ids=["trace-above-1", "negative-eigenvalue", "non-hermitian"])
def test_propagate_checks_the_initial_state_before_any_step(monkeypatch, rho0, error):
    def no_steps(*args):
        raise AssertionError("propagate built step maps for an invalid initial state")

    monkeypatch.setattr(lindblad, "augmented_generators", no_steps)
    with pytest.raises(error):
        propagate(amplitude_damping_model(), rho0.astype(complex), 1.0, 0.01, 5)


def test_propagate_shrinks_dt_to_divide_horizon():
    with pytest.warns(UserWarning, match="accuracy may degrade"):
        traj = propagate(amplitude_damping_model(), excited_state(), 1.0, 0.3, 3)
    assert traj.n_steps == 4
    assert traj.dt == pytest.approx(0.25)
    assert traj.times[-1] == pytest.approx(1.0)


def test_cptp_diagnostics_on_benchmark(rydberg):
    model, bell = rydberg
    rho0 = models.initial_state("gibbs", model.hamiltonian_protocol(0.0), beta=30.0)
    traj = propagate(model, rho0, 20.0, 0.01, 11)
    assert traj.max_step_trace_drift < 1e-9
    assert float(np.min(traj.min_eigenvalues)) > -1e-9
    assert traj.heat[0] == 0.0 and traj.work[0] == 0.0
    assert np.all(np.diff(traj.times) > 0)


def reference_propagate(model, rho0, t_end, dt, n_samples):
    """Stage-by-stage RK4 with in-stage heat/work and per-step renormalization.

    Returns (states, heat, work) at the samples ``propagate`` keeps.
    """
    n_steps = max(1, math.ceil(t_end / dt - 1e-12))
    dt = t_end / n_steps
    keep = set(np.rint(np.linspace(0, n_steps, n_samples)).astype(int).tolist())
    ham, hdot = model.hamiltonian_protocol, model.hamiltonian_rate_protocol

    def rhs(t, r):
        h = ham(t)
        k = -1j * (h @ r - r @ h)
        for ch in model.channels:
            l_op = ch.operator_protocol(t)
            ll = l_op.conj().T @ l_op
            k = k + ch.rate * (l_op @ r @ l_op.conj().T - 0.5 * (ll @ r + r @ ll))
        w = float(np.sum(hdot(t) * r.T).real) if model.driven else 0.0
        return k, -float(np.sum(h * k.T).real), w

    rho, q, w = rho0.astype(complex), 0.0, 0.0
    out = ([rho], [0.0], [0.0])
    for step in range(n_steps):
        t = step * dt
        k1, q1, w1 = rhs(t, rho)
        k2, q2, w2 = rhs(t + dt / 2, rho + dt / 2 * k1)
        k3, q3, w3 = rhs(t + dt / 2, rho + dt / 2 * k2)
        k4, q4, w4 = rhs(t + dt, rho + dt * k3)
        rho = rho + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        q += dt / 6 * (q1 + 2 * q2 + 2 * q3 + q4)
        w += dt / 6 * (w1 + 2 * w2 + 2 * w3 + w4)
        rho = (rho + rho.conj().T) / 2
        rho = rho / np.trace(rho).real
        if step + 1 in keep:
            for column, value in zip(out, (rho, q, w)):
                column.append(value)
    return out


@pytest.mark.parametrize("case", ["erasure", "amplitude_damping"])
def test_step_maps_match_stage_by_stage_rk4(case, erasure):
    if case == "amplitude_damping":
        model, rho0, t_end = amplitude_damping_model(), excited_state(), 5.0
    else:
        model = erasure
        rho0, t_end = models.initial_state("gibbs", erasure.hamiltonian_protocol(0.0), beta=1.0), 3.0
    traj = propagate(model, rho0, t_end, 0.01, 31)
    states, heat, work = reference_propagate(model, rho0, t_end, 0.01, 31)
    assert len(states) == len(states_of(traj)) == 31
    for st, ref in zip(states_of(traj), states):
        assert np.max(np.abs(st - ref)) < 1e-12
    assert np.max(np.abs(traj.heat - heat)) < 1e-12
    assert np.max(np.abs(traj.work - work)) < 1e-12
    assert np.max(np.abs(heat)) > 1e-3
    assert (np.max(np.abs(work)) > 1e-3) == model.driven


@pytest.mark.parametrize("case, t_end, n_samples, gaps, coarse", [
    ("erasure", 3.07, 31, {10, 11}, False),
    # one gap of three blocks of qubit step maps and a partial block; it runs
    # past t = tau, where the gap eps_tau = 10 makes dt * scale = 0.145
    ("erasure", (3 * steps_per_block(2) + 16) / 100, 2, {3 * steps_per_block(2) + 16}, True),
    ("erasure", 1.5, 151, {1}, False),
    ("amplitude_damping", 3.07, 31, {10, 11}, False),
], ids=["uneven-gaps", "gap-over-three-blocks", "every-step", "undriven-uneven-gaps"])
def test_segment_products_match_stage_by_stage_rk4(case, t_end, n_samples, gaps, coarse,
                                                   erasure):
    if case == "amplitude_damping":
        model, rho0 = amplitude_damping_model(), excited_state()
    else:
        model = erasure
        rho0 = models.initial_state("gibbs", erasure.hamiltonian_protocol(0.0), beta=1.0)
    with (pytest.warns(UserWarning, match="accuracy may degrade") if coarse
          else contextlib.nullcontext()):
        traj = propagate(model, rho0, t_end, 0.01, n_samples)
    assert set(np.diff(np.rint(traj.times / traj.dt)).astype(int).tolist()) == gaps
    states, heat, work = reference_propagate(model, rho0, t_end, 0.01, n_samples)
    assert len(states) == len(states_of(traj)) == n_samples
    assert np.max(np.abs(states_of(traj) - np.array(states))) < 1e-12
    assert np.max(np.abs(traj.heat - heat)) < 1e-12
    assert np.max(np.abs(traj.work - work)) < 1e-12
    assert np.max(np.abs(heat)) > 1e-3
    assert (np.max(np.abs(work)) > 1e-3) == model.driven


def complex_generators(model, times):
    """Complex generators of [vec rho, Q, W] (row-major vec), built from
    Kronecker products with the identity: the oracle of ``augmented_generators``."""
    d, n = model.dim, model.dim ** 2

    def kron(a, b):  # vec(A rho B) = kron(A, B^T) vec(rho)
        return (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(-1, n, n)

    def values(protocol):
        return np.broadcast_to(np.asarray(protocol(times), dtype=complex), (len(times), d, d))

    h = values(model.hamiltonian_protocol)
    k_eff, jumps = h.copy(), 0.0
    for ch in model.channels:
        l_op = values(ch.operator_protocol)
        k_eff = k_eff - 0.5j * ch.rate * np.swapaxes(l_op.conj(), -1, -2) @ l_op
        jumps = jumps + ch.rate * kron(l_op, l_op.conj())
    eye = np.eye(d)
    liou = -1j * (kron(k_eff, eye) - kron(eye, k_eff.conj())) + jumps
    gen = np.zeros((len(times), n + 2, n + 2), dtype=complex)
    gen[:, :n, :n] = liou
    gen[:, n, :n] = -(np.swapaxes(h, -1, -2).reshape(-1, 1, n) @ liou)[:, 0]  # -Tr[H L(rho)]
    if model.driven:
        gen[:, n + 1, :n] = np.swapaxes(values(model.hamiltonian_rate_protocol), -1, -2).reshape(-1, n)
    return gen


def generator(model, t, rho):
    """Right-hand side of the master equation at (t, rho): the Liouvillian
    block of ``augmented_generators`` applied to the coordinates of rho, which
    must be Hermitian. The result is exactly Hermitian, and traceless up to
    rounding."""
    n = model.dim ** 2
    liou = augmented_generators(model, np.array([float(t)]))[0, :n, :n]
    return density_matrices(liou @ hermitian_coordinates(linalg.as_operator(rho)))


def coordinate_map(dim):
    """The unitary T with T vec(rho) = hermitian_coordinates(rho) on Hermitian rho,
    extended by the identity on Q and W, written out entry by entry."""
    n = dim * dim
    t = np.zeros((n + 2, n + 2), dtype=complex)
    t[n, n] = t[n + 1, n + 1] = 1.0
    for i in range(dim):
        t[i * dim + i, i * dim + i] = 1.0
        for j in range(i + 1, dim):
            upper, lower = i * dim + j, j * dim + i
            t[upper, upper] = t[upper, lower] = 2 ** -0.5  # sqrt(2) Re rho_ij
            t[lower, upper], t[lower, lower] = -1j * 2 ** -0.5, 1j * 2 ** -0.5  # sqrt(2) Im rho_ij
    return t


def assert_real_generators_match_oracle(model, times):
    """``augmented_generators`` equals T A T^dag of the complex oracle A at every time."""
    real, oracle = augmented_generators(model, times), complex_generators(model, times)
    assert real.dtype == np.float64 and real.shape == oracle.shape
    t = coordinate_map(model.dim)
    for r, a in zip(real, oracle):
        assert np.max(np.abs(t @ a @ t.conj().T - r)) <= 1e-12 * np.linalg.norm(a)
    return real, oracle


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(random_lindbladians())
def test_real_coordinates_of_random_lindbladians(case):
    model, rho = case
    n = model.dim ** 2
    real, gen = assert_real_generators_match_oracle(model, np.zeros(1))
    norm = np.linalg.norm(gen[0])
    assert abs(np.linalg.norm(real[0]) - norm) <= 1e-12 * norm
    complex_eigs = list(np.linalg.eigvals(gen[0, :n, :n]))
    for eig in np.linalg.eigvals(real[0, :n, :n]):
        nearest = min(range(len(complex_eigs)), key=lambda i: abs(complex_eigs[i] - eig))
        assert abs(complex_eigs.pop(nearest) - eig) <= 1e-12 * norm
    x = hermitian_coordinates(rho)
    grid, upper = x.reshape(model.dim, model.dim), np.triu_indices(model.dim, 1)
    assert np.array_equal(np.diag(grid), np.diag(rho).real)
    assert np.max(np.abs(grid[upper] - 2 ** 0.5 * rho[upper].real)) < 1e-15
    assert np.max(np.abs(grid.T[upper] - 2 ** 0.5 * rho[upper].imag)) < 1e-15
    assert np.max(np.abs(real[0, :n, :n] @ x
                         - hermitian_coordinates(generator(model, 0.0, rho)))) < 1e-13
    back = density_matrices(x)
    assert np.array_equal(back, back.conj().T)
    assert np.max(np.abs(back - rho)) < 1e-15
    assert np.max(np.abs(hermitian_coordinates(back) - x)) < 1e-15


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(random_lindbladians(driven=True))
def test_real_generators_of_random_driven_lindbladians(case):
    model, rho = case
    times = np.linspace(0.0, 2.0, 5)
    real, _ = assert_real_generators_match_oracle(model, times)
    assert np.any(real[:, -1] != 0.0)  # the work row
    for i, t in enumerate(times):  # generator() builds one time at a time
        assert np.max(np.abs(real[i, :-2, :-2] @ hermitian_coordinates(rho)
                             - hermitian_coordinates(generator(model, t, rho)))) < 1e-13


@pytest.mark.parametrize("budget_steps", [3, None], ids=["three-steps", "whole-run"])
def test_block_size_does_not_change_results(budget_steps, erasure, monkeypatch):
    # 1537 steps in uneven sample gaps of 51 and 52 steps span several default
    # blocks; three-step blocks end inside every gap, one block holds them all.
    rho0 = models.initial_state("gibbs", erasure.hamiltonian_protocol(0.0), beta=1.0)
    default = propagate(erasure, rho0, 7.685, 0.005, 31)
    assert default.n_steps > 2 * steps_per_block(2)
    monkeypatch.setattr(lindblad, "STEP_BLOCK_BYTES",
                        8 * 6 ** 2 * (budget_steps or default.n_steps))
    assert steps_per_block(2) == (budget_steps or default.n_steps)
    traj = propagate(erasure, rho0, 7.685, 0.005, 31)
    assert set(np.diff(np.rint(traj.times / traj.dt)).astype(int).tolist()) == {51, 52}
    assert np.max(np.abs(states_of(traj) - states_of(default))) < 1e-13
    assert np.max(np.abs(traj.heat - default.heat)) < 1e-13
    assert np.max(np.abs(traj.work - default.work)) < 1e-13


def test_steps_per_block_follow_the_byte_budget():
    assert [steps_per_block(d) for d in (2, 4, 9)] == [512, 56, 2]
    assert steps_per_block(40) == 1


def test_propagate_memory_is_bounded(erasure):
    # The paper-size erasure (20k steps, 401 samples) builds its step maps a
    # block at a time: about 1.5 MB at the peak, while holding all maps of the
    # run at once would take more than 11 MB.
    rho0 = models.initial_state("gibbs", erasure.hamiltonian_protocol(0.0), beta=1.0)
    propagate(erasure, rho0, 0.1, 5e-4, 2)  # lazy set-up outside the measurement
    tracemalloc.start()
    try:
        propagate(erasure, rho0, 10.0, 5e-4, 401)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000


def test_propagate_holds_each_sampled_state_once(rydberg):
    # 2,001 samples of the 9-level pump: the trajectory keeps the states as the
    # r = 39 real coordinates the Gibbs start can reach, (m, r) floats (0.62 MB),
    # with the spectra, heat, work, times and trace drifts. propagate copies each
    # block of samples into the trajectory as it is propagated, so its peak is
    # the trajectory plus one block's transients. Keeping all 81 coordinates
    # would add 0.67 MB; keeping the (m, 9, 9) complex stack as well 2.6 MB more.
    model, _ = rydberg
    rho0 = models.initial_state("gibbs", model.hamiltonian_protocol(0.0), beta=30.0)
    propagate(model, rho0, 0.1, 0.01, 2)  # lazy set-up outside the measurement
    tracemalloc.start()
    try:
        current = tracemalloc.get_traced_memory()[0]
        traj = propagate(model, rho0, 20.0, 0.01, 2001)
        peak = tracemalloc.get_traced_memory()[1] - current
    finally:
        tracemalloc.stop()
    m, d, r = len(traj.times), model.dim, len(traj.support)
    assert r == 39
    trajectory = m * (r + d + 4) * 8
    assert trajectory == sum(a.nbytes for a in (traj.times, traj.coordinates, traj.spectra,
                                                traj.heat, traj.work, traj.trace_drifts))
    # one block's transients: its samples at full width and at most four
    # (SAMPLE_BLOCK, d, d) complex stacks
    allowance = lindblad.SAMPLE_BLOCK * d * d * (8 + 4 * 16)
    assert peak < trajectory + allowance


def test_upper_triangle_is_the_gather_from_density_matrices_bit_for_bit():
    # Coordinates of both signs of zero, subnormals and the largest finite
    # numbers: rho_ii = x_ii / 2 + x_ii / 2 rounds a subnormal x_ii, and the
    # complex products of density_matrices turn -0.0 into +0.0 in some cells.
    values = np.array([0.0, -0.0, 5e-324, -5e-324, 3e-320, -1e-310, 2.2e-308, 0.25, -1 / 3,
                       1e16, -1.7976931348623157e308])
    rng = np.random.default_rng(7)
    for d in (1, 2, 3, 9):
        x = rng.choice(values, size=(4000, d * d))
        rho = density_matrices(x)
        upper, strict = np.triu_indices(d), np.triu_indices(d, 1)
        gathered = np.concatenate([rho[:, upper[0], upper[1]].real,
                                   rho[:, strict[0], strict[1]].imag], axis=1)
        columns = lindblad.upper_triangle(x)
        assert columns.shape == (4000, d * d)
        assert np.array_equal(columns.view(np.int64), gathered.view(np.int64))
        # a sampled trajectory's coordinates are a strided view of its [x, Q, W] rows
        rows = np.concatenate([x, np.zeros((4000, 2))], axis=1)
        assert np.array_equal(lindblad.upper_triangle(rows[:, :d * d]).view(np.int64),
                              gathered.view(np.int64))


def test_erasure_protocols_accept_time_arrays(erasure):
    times = np.linspace(0.0, models.ErasureParams().tau, 101)
    protocols = [erasure.hamiltonian_protocol, erasure.hamiltonian_rate_protocol]
    protocols += [ch.operator_protocol for ch in erasure.channels]
    for protocol in protocols:
        stacked = protocol(times)
        assert stacked.shape == (101, 2, 2)
        one_by_one = np.array([protocol(float(t)) for t in times])
        assert np.max(np.abs(stacked - one_by_one)) < 1e-14


def test_constant_protocol_broadcasts_over_times():
    h = 0.5 * SZ
    model = LindbladModel(dim=2, hamiltonian_protocol=lambda t: h,
                          channels=(JumpChannel.constant(0.2, LOWER),),
                          hamiltonian_rate_protocol=zero_rate)
    gens = augmented_generators(model, np.linspace(0.0, 1.0, 5))
    assert gens.shape == (5, 6, 6)
    assert np.all(gens == gens[0])
    assert np.all(gens[:, 5] == 0)  # the work row of a zero dH/dt
    rho = excited_state()
    assert np.allclose(density_matrices(gens[0, :4, :4] @ hermitian_coordinates(rho)),
                       generator(model, 0.3, rho), atol=1e-15)

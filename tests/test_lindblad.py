import dataclasses
import math
import tracemalloc

import hypothesis.strategies as hst
import numpy as np
import pytest
from hypothesis import given, settings

from landauer_bounds import lindblad, models
from landauer_bounds.errors import StabilityError, UndrivenModelWarning
from landauer_bounds.lindblad import (
    JumpChannel,
    LindbladModel,
    augmented_generators,
    density_matrices,
    generator,
    hamiltonian_rate,
    hermitian_coordinates,
    propagate,
    steps_per_block,
)
from landauer_bounds.qstate import DensityMatrix

SZ = np.diag([1.0, -1.0]).astype(complex)
LOWER = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|


def amplitude_damping_model(eps=1.0, gamma=0.2):
    h = 0.5 * eps * SZ
    return LindbladModel(
        dim=2,
        hamiltonian_protocol=lambda t: h,
        channels=(JumpChannel.constant(gamma, LOWER),),
        driven=False,
    )


def excited_state():
    return DensityMatrix.from_matrix(np.diag([0.0, 1.0]).astype(complex))


def test_generator_stationary_eigenstate():
    model = LindbladModel(dim=2, hamiltonian_protocol=lambda t: SZ, channels=(), driven=False)
    out = generator(model, 0.0, DensityMatrix.pure(np.array([1, 0])))
    assert np.max(np.abs(out)) < 1e-14


def test_generator_pure_decay_algebra():
    gamma = 0.37
    model = LindbladModel(
        dim=2, hamiltonian_protocol=lambda t: np.zeros((2, 2), complex),
        channels=(JumpChannel.constant(gamma, LOWER),), driven=False)
    out = generator(model, 0.0, excited_state())
    assert np.allclose(out, gamma * np.diag([1.0, -1.0]), atol=1e-14)


def test_generator_is_traceless_hermitian(rydberg):
    model, _ = rydberg
    rng = np.random.default_rng(11)
    a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    m = a @ a.conj().T
    rho = DensityMatrix.from_matrix(m / np.trace(m).real)
    out = generator(model, 0.0, rho)
    assert abs(np.trace(out)) < 1e-12
    assert np.max(np.abs(out - out.conj().T)) < 1e-11


def test_generator_dark_state_is_stationary(rydberg):
    model, bell = rydberg
    out = generator(model, 0.0, DensityMatrix.pure(bell))
    assert np.max(np.abs(out)) < 1e-12


def test_propagate_zero_generator():
    model = LindbladModel(dim=2, hamiltonian_protocol=lambda t: np.zeros((2, 2), complex),
                          channels=(), driven=False)
    rho0 = DensityMatrix.from_matrix(np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex))
    traj = propagate(model, rho0, 1.0, 0.01, 5)
    for st in traj.states:
        assert np.allclose(st, rho0.matrix, atol=1e-14)
    assert np.all(traj.heat == 0.0)
    assert np.all(traj.work == 0.0)


def test_propagate_amplitude_damping_oracle():
    gamma = 0.2
    traj = propagate(amplitude_damping_model(gamma=gamma), excited_state(), 10.0, 1e-3, 21)
    for t, st in zip(traj.times, traj.states):
        assert st[1, 1].real == pytest.approx(math.exp(-gamma * t), abs=1e-9)
        assert abs(st[0, 1]) < 1e-14
    # undriven accounting: Q = -dE at every sample
    e = np.array([float(np.trace(st @ (0.5 * SZ)).real) for st in traj.states])
    assert np.max(np.abs(traj.heat - (e[0] - e))) < 1e-12


def test_rk4_order_against_analytic_solution():
    gamma = 0.2
    model = amplitude_damping_model(gamma=gamma)

    def max_err(dt):
        traj = propagate(model, excited_state(), 5.0, dt, 6)
        return max(abs(st[1, 1].real - math.exp(-gamma * t))
                   for t, st in zip(traj.times, traj.states))

    with pytest.warns(UserWarning, match="accuracy may degrade"):
        coarse = max_err(0.1)
    ratio = coarse / max_err(0.05)
    assert ratio >= 15.0


def test_constant_and_generic_paths_agree():
    const = amplitude_damping_model()
    driven_clone = dataclasses.replace(const, driven=True)
    a = propagate(const, excited_state(), 2.0, 0.01, 9)
    with pytest.warns(UndrivenModelWarning):
        # the clone advertises driven dynamics, so dH/dt falls back to a
        # finite difference of the constant Hamiltonian (zero, with warning
        # emitted by the public op; the loop itself uses the FD directly)
        hamiltonian_rate(const, 0.0)
    b = propagate(driven_clone, excited_state(), 2.0, 0.01, 9)
    for sa, sb in zip(a.states, b.states):
        assert np.max(np.abs(sa - sb)) < 1e-13
    assert np.max(np.abs(a.heat - b.heat)) < 1e-13
    assert np.max(np.abs(b.work)) < 1e-13


def test_driven_energy_balance(erasure):
    rho0 = models.initial_state("gibbs", erasure.hamiltonian(0.0), beta=1.0)
    traj = propagate(erasure, rho0, 2.0, 1e-3, 21)
    h_t = [erasure.hamiltonian(float(t)) for t in traj.times]
    e = np.array([float(np.trace(st @ h).real) for st, h in zip(traj.states, h_t)])
    assert np.max(np.abs((e - e[0]) - (traj.work - traj.heat))) < 1e-8


def test_hamiltonian_rate_undriven_warns():
    model = amplitude_damping_model()
    with pytest.warns(UndrivenModelWarning):
        out = hamiltonian_rate(model, 0.3)
    assert np.all(out == 0)


def test_hamiltonian_rate_analytic_vs_finite_difference(erasure):
    fd_model = dataclasses.replace(erasure, hamiltonian_rate_protocol=None)
    for t in (2.5, 5.0, 7.5):
        analytic = hamiltonian_rate(erasure, t)
        fd = hamiltonian_rate(fd_model, t)
        assert np.max(np.abs(analytic - fd)) < 1e-7


def test_hamiltonian_rate_at_protocol_start(erasure):
    # eps-ramp rate vanishes at t = 0, leaving only the axis rotation:
    # dH/dt(0) = (eps0/2) * (pi/tau) * (-sin(-pi) sz + cos(-pi) sx) = -(eps0 pi / 2 tau) sx
    params = models.ErasureParams()
    expected = -(params.eps0 / 2.0) * (math.pi / params.tau) * np.array(
        [[0, 1], [1, 0]], dtype=complex)
    assert np.allclose(hamiltonian_rate(erasure, 0.0), expected, atol=1e-15)


def test_propagate_rejects_absurd_step():
    with pytest.raises(StabilityError), pytest.warns(UserWarning, match="accuracy may degrade"):
        propagate(amplitude_damping_model(), excited_state(), 50.0, 50.0, 2)


def test_propagate_validates_arguments():
    model = amplitude_damping_model()
    with pytest.raises(ValueError):
        propagate(model, excited_state(), 1.0, -0.1, 5)
    with pytest.raises(ValueError):
        propagate(model, excited_state(), 1.0, 0.1, 1)
    with pytest.raises(ValueError):
        propagate(model, excited_state(), 1.0, 0.5, 9)  # more samples than steps


def test_propagate_shrinks_dt_to_divide_horizon():
    with pytest.warns(UserWarning, match="accuracy may degrade"):
        traj = propagate(amplitude_damping_model(), excited_state(), 1.0, 0.3, 3)
    assert traj.n_steps == 4
    assert traj.dt == pytest.approx(0.25)
    assert traj.times[-1] == pytest.approx(1.0)


def test_cptp_diagnostics_on_benchmark(rydberg):
    model, bell = rydberg
    rho0 = models.initial_state("gibbs", model.hamiltonian(0.0), beta=30.0)
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
    ham = model.hamiltonian_protocol
    if model.hamiltonian_rate_protocol is not None:
        hdot = model.hamiltonian_rate_protocol
    else:
        h_fd = 1e-6 * model.protocol_timescale

        def hdot(t):
            return (ham(t + h_fd) - ham(t - h_fd)) / (2.0 * h_fd)

    def rhs(t, r):
        h = ham(t)
        k = -1j * (h @ r - r @ h)
        for ch in model.channels:
            l_op = ch.operator_protocol(t)
            ll = l_op.conj().T @ l_op
            k = k + ch.rate * (l_op @ r @ l_op.conj().T - 0.5 * (ll @ r + r @ ll))
        w = float(np.sum(hdot(t) * r.T).real) if model.driven else 0.0
        return k, -float(np.sum(h * k.T).real), w

    rho, q, w = rho0.matrix.astype(complex), 0.0, 0.0
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


@pytest.mark.parametrize("case", ["erasure", "erasure_fd_rate", "amplitude_damping"])
def test_step_maps_match_stage_by_stage_rk4(case, erasure):
    if case == "amplitude_damping":
        model, rho0, t_end = amplitude_damping_model(), excited_state(), 5.0
    else:
        model = erasure if case == "erasure" else dataclasses.replace(
            erasure, hamiltonian_rate_protocol=None)
        rho0, t_end = models.initial_state("gibbs", erasure.hamiltonian(0.0), beta=1.0), 3.0
    traj = propagate(model, rho0, t_end, 0.01, 31)
    states, heat, work = reference_propagate(model, rho0, t_end, 0.01, 31)
    assert len(states) == len(traj.states) == 31
    for st, ref in zip(traj.states, states):
        assert np.max(np.abs(st - ref)) < 1e-12
    assert np.max(np.abs(traj.heat - heat)) < 1e-12
    assert np.max(np.abs(traj.work - work)) < 1e-12
    assert np.max(np.abs(heat)) > 1e-3
    assert (np.max(np.abs(work)) > 1e-3) == model.driven


@pytest.mark.parametrize("case, t_end, n_samples, gaps", [
    ("erasure", 3.07, 31, {10, 11}),
    # one gap of three blocks of qubit step maps and a partial block
    ("erasure", (3 * steps_per_block(2) + 16) / 100, 2, {3 * steps_per_block(2) + 16}),
    ("erasure", 1.5, 151, {1}),
    ("amplitude_damping", 3.07, 31, {10, 11}),
], ids=["uneven-gaps", "gap-over-three-blocks", "every-step", "undriven-uneven-gaps"])
def test_segment_products_match_stage_by_stage_rk4(case, t_end, n_samples, gaps, erasure):
    if case == "amplitude_damping":
        model, rho0 = amplitude_damping_model(), excited_state()
    else:
        model = erasure
        rho0 = models.initial_state("gibbs", erasure.hamiltonian(0.0), beta=1.0)
    traj = propagate(model, rho0, t_end, 0.01, n_samples)
    assert set(np.diff(np.rint(traj.times / traj.dt)).astype(int).tolist()) == gaps
    states, heat, work = reference_propagate(model, rho0, t_end, 0.01, n_samples)
    assert len(states) == len(traj.states) == n_samples
    assert np.max(np.abs(traj.states - np.array(states))) < 1e-12
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


@hst.composite
def random_lindbladians(draw, driven=False):
    """A random Hermitian H, one to three random jump operators and a random state.

    Hypothesis draws the dimension, the number of jumps and a seed; the
    entries come from that seed, so every model is generic (no degenerate
    or defective spectrum that would make eigenvalues ill conditioned).
    Driven models have H(t) = H0 + sin(w t) H1 with its analytic dH/dt and
    jump operators L(t) = L0 + cos(w t) L1.
    """
    dim = draw(hst.sampled_from([2, 3, 4]))
    n_jumps = draw(hst.integers(1, 3))
    rng = np.random.default_rng(draw(hst.integers(0, 2 ** 32 - 1)))
    re, im = rng.normal(size=(2, 2 + n_jumps, dim, dim))
    a, rho, *jumps = re + 1j * im
    h = (a + a.conj().T) / 2
    rho = rho @ rho.conj().T
    rates = rng.uniform(0.05, 2.0, n_jumps)
    if not driven:
        model = LindbladModel(dim=dim, hamiltonian_protocol=lambda t: h, driven=False,
                              channels=tuple(map(JumpChannel.constant, rates, jumps)))
        return model, rho / np.trace(rho).real
    re, im = rng.normal(size=(2, 1 + n_jumps, dim, dim))
    b, *jumps1 = re + 1j * im
    h1, omega = (b + b.conj().T) / 2, rng.uniform(0.5, 3.0)

    def wave(fn, a0, a1, scale=1.0):  # a0 + scale fn(omega t) a1, for a time or an array of times
        return lambda t: a0 + scale * fn(omega * np.asarray(t, dtype=float))[..., None, None] * a1

    model = LindbladModel(
        dim=dim, hamiltonian_protocol=wave(np.sin, h, h1), driven=True,
        hamiltonian_rate_protocol=wave(np.cos, 0.0, h1, omega),
        channels=tuple(JumpChannel(rate, wave(np.cos, l0, l1))
                       for rate, l0, l1 in zip(rates, jumps, jumps1)))
    return model, rho / np.trace(rho).real


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
    rho0 = models.initial_state("gibbs", erasure.hamiltonian(0.0), beta=1.0)
    default = propagate(erasure, rho0, 7.685, 0.005, 31)
    assert default.n_steps > 2 * steps_per_block(2)
    monkeypatch.setattr(lindblad, "STEP_BLOCK_BYTES",
                        8 * 6 ** 2 * (budget_steps or default.n_steps))
    assert steps_per_block(2) == (budget_steps or default.n_steps)
    traj = propagate(erasure, rho0, 7.685, 0.005, 31)
    assert set(np.diff(np.rint(traj.times / traj.dt)).astype(int).tolist()) == {51, 52}
    assert np.max(np.abs(traj.states - default.states)) < 1e-13
    assert np.max(np.abs(traj.heat - default.heat)) < 1e-13
    assert np.max(np.abs(traj.work - default.work)) < 1e-13


def test_steps_per_block_follow_the_byte_budget():
    assert [steps_per_block(d) for d in (2, 4, 9)] == [512, 56, 2]
    assert steps_per_block(40) == 1


def test_propagate_memory_is_bounded(erasure):
    # The paper-size erasure (20k steps, 401 samples) builds its step maps a
    # block at a time: about 1.5 MB at the peak, while holding all maps of the
    # run at once would take more than 11 MB.
    rho0 = models.initial_state("gibbs", erasure.hamiltonian(0.0), beta=1.0)
    propagate(erasure, rho0, 0.1, 5e-4, 2)  # lazy set-up outside the measurement
    tracemalloc.start()
    try:
        propagate(erasure, rho0, 10.0, 5e-4, 401)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000


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
                          channels=(JumpChannel.constant(0.2, LOWER),), driven=True)
    gens = augmented_generators(model, np.linspace(0.0, 1.0, 5))
    assert gens.shape == (5, 6, 6)
    assert np.all(gens == gens[0])
    assert np.all(gens[:, 5] == 0)  # finite-difference dH/dt of a constant
    rho = excited_state()
    assert np.allclose(density_matrices(gens[0, :4, :4] @ hermitian_coordinates(rho.matrix)),
                       generator(model, 0.3, rho), atol=1e-15)

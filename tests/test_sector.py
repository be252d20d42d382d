"""The coordinates a run keeps (``Trajectory.support``).

An undriven run propagates only the closure of its start's nonzero coordinates
under the nonzero pattern of its generator. The oracle here applies the full
(d^2 + 2)-wide RK4 step map instead: every coordinate outside the support must
be exactly zero in it, and the run must match it within SECTOR_TOL. Driven runs
keep every coordinate.
"""

import json

import numpy as np
import pytest
from full_width import full_coordinates
from hypothesis import given, settings
from random_cases import block_diagonal_lindbladians, quiet_step, random_lindbladians

from landauer_bounds import cli, lindblad, models
from landauer_bounds.lindblad import (
    JumpChannel,
    LindbladModel,
    augmented_generators,
    density_matrices,
    hermitian_coordinates,
    propagate,
)

# Largest scaled difference |a - b| / max(1, |b|) of a run from the full-width
# oracle, in its coordinates, spectra, heat and work.
SECTOR_TOL = 1e-13


def full_width_oracle(model, rho0, t_end, dt, n_samples):
    """Unit-trace coordinates (m, d^2), heat and work of each sample of an undriven
    model: the power of the full RK4 step map I + dt/6 (K1 + 2 K2 + 2 K3 + K4) of
    its constant augmented generator over each sample gap, applied to all d^2 + 2
    coordinates, with the state renormalized at every sample."""
    sample_idx, dt = lindblad.sample_grid(t_end, dt, n_samples)
    a = augmented_generators(model, np.zeros(1))[0]
    n, eye = model.dim ** 2, np.eye(len(a))
    k2 = a @ (eye + dt / 2 * a)
    k3 = a @ (eye + dt / 2 * k2)
    k4 = a @ (eye + dt * k3)
    step = eye + dt / 6 * (a + 2 * k2 + 2 * k3 + k4)
    gaps = np.diff(sample_idx).tolist()
    powers = {gap: np.linalg.matrix_power(step, gap) for gap in set(gaps)}
    xs, qw = [hermitian_coordinates(rho0)], [np.zeros(2)]
    for gap in gaps:
        y = powers[gap] @ np.concatenate([xs[-1], [0.0, 0.0]])
        xs.append(y[:n] / y[:n:model.dim + 1].sum())
        qw.append(qw[-1] + y[n:])
    return np.array(xs), *np.array(qw).T


def scaled_difference(a, b):
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))


def assert_matches_oracle(model, rho0, t_end, dt, n_samples):
    """The run's support, after checking it against the full-width oracle."""
    traj = propagate(model, rho0, t_end, dt, n_samples)
    xs, heat, work = full_width_oracle(model, rho0, t_end, dt, n_samples)
    outside = np.setdiff1d(np.arange(model.dim ** 2), traj.support)
    assert np.all(xs[:, outside] == 0.0)
    assert traj.coordinates.shape == (n_samples, len(traj.support))
    assert scaled_difference(full_coordinates(traj), xs) <= SECTOR_TOL
    assert scaled_difference(traj.spectra, np.linalg.eigvalsh(density_matrices(xs))) <= SECTOR_TOL
    assert scaled_difference(traj.heat, heat) <= SECTOR_TOL
    assert scaled_difference(traj.work, work) <= SECTOR_TOL
    return traj.support, xs


PURE_01 = np.eye(9)[1]


@pytest.mark.parametrize("kind, values, reachable", [
    ("gibbs", {"beta": 30.0}, 39),
    ("sorted_ascending_diagonal", {"beta": 30.0}, 39),
    ("maximally_mixed", {}, 24),
    ("pure", {"vector": PURE_01}, 21),
], ids=["gibbs", "inverted", "mixed", "pure-01"])
def test_fig1_keeps_the_coordinates_its_start_reaches(rydberg, kind, values, reachable):
    # The pump never couples its 6-level Bell-pair block to its three spectator levels.
    model, _ = rydberg
    rho0 = models.initial_state(kind, model.hamiltonian_protocol(0.0), **values)
    support, xs = assert_matches_oracle(model, rho0, 2000.0, 0.01, 401)
    assert len(support) == reachable
    # and every kept coordinate is nonzero at some sample: the closure is no wider
    assert np.all(np.any(xs[:, support] != 0.0, axis=0))


def test_two_baths_custom_model_keeps_its_populations(tmp_path):
    # README's qubit between baths at T = 0.5 and T = 5: a diagonal Hamiltonian and
    # jumps between its levels never make a coherence from a diagonal start.
    channels = []
    for temperature in (0.5, 5.0):
        n_bath = 1.0 / np.expm1(1.0 / temperature)
        channels += [{"rate": 0.1 * (n_bath + 1.0), "operator": {"re": [[0, 1], [0, 0]]}},
                     {"rate": 0.1 * n_bath, "operator": {"re": [[0, 0], [1, 0]]}}]
    path = tmp_path / "two-baths.json"
    path.write_text(json.dumps({"dim": 2, "hamiltonian": {"re": [[-0.5, 0], [0, 0.5]]},
                                "channels": channels}))
    model = cli.load_custom_model(path)
    rho0 = models.initial_state("gibbs", model.hamiltonian_protocol(0.0), beta=2.0)
    support, _ = assert_matches_oracle(model, rho0, 40.0, 0.01, 41)
    assert support.tolist() == [0, 3]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(block_diagonal_lindbladians())
def test_closure_is_the_blocks_the_start_touches(case):
    model, rho0, reachable = case
    support, _ = assert_matches_oracle(model, rho0, 1.0, quiet_step(model, 1.0), 5)
    assert np.array_equal(support, reachable)


def basis_state(dim):
    return np.diag(np.eye(dim)[0]).astype(complex)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(random_lindbladians())
def test_a_dense_generator_reaches_every_coordinate(case):
    model, _ = case
    support, _ = assert_matches_oracle(model, basis_state(model.dim), 1.0,
                                       quiet_step(model, 1.0), 5)
    assert np.array_equal(support, np.arange(model.dim ** 2))


@settings(max_examples=10, deadline=None, derandomize=True)
@given(random_lindbladians(driven=True))
def test_driven_runs_keep_every_coordinate(case):
    model, _ = case
    traj = propagate(model, basis_state(model.dim), 1.0, quiet_step(model, 1.0), 5)
    assert np.array_equal(traj.support, np.arange(model.dim ** 2))
    assert traj.coordinates.shape == (5, model.dim ** 2)


def test_a_driven_run_keeps_what_its_undriven_twin_drops(fig2_result):
    # Amplitude damping from the excited state never makes a coherence, but a
    # driven model's pattern may change with time, so its run keeps them all.
    h, lower = np.diag([0.5, -0.5]).astype(complex), np.array([[0, 1], [0, 0]], dtype=complex)
    undriven = LindbladModel(dim=2, hamiltonian_protocol=lambda t: h,
                             channels=(JumpChannel.constant(0.2, lower),))
    driven = LindbladModel(dim=2, hamiltonian_protocol=lambda t: h, channels=undriven.channels,
                           hamiltonian_rate_protocol=lambda t: np.zeros((2, 2)))
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    assert propagate(undriven, rho0, 5.0, 0.01, 11).support.tolist() == [0, 3]
    assert propagate(driven, rho0, 5.0, 0.01, 11).support.tolist() == [0, 1, 2, 3]
    assert fig2_result.trajectory.support.tolist() == [0, 1, 2, 3]

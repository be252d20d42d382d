"""Trajectories at full width. A run keeps only the coordinates its start can
reach (``Trajectory.support``); the tests read its samples, and build
trajectories by hand, at all d^2 coordinates through these helpers."""

import numpy as np

from landauer_bounds.lindblad import Trajectory, density_matrices


def full_coordinates(traj):
    """The (m, d^2) coordinates of every sample, zero outside ``traj.support``."""
    return traj.full_coordinates(slice(None))


def states_of(traj):
    """The (m, d, d) sampled density matrices of a trajectory."""
    return density_matrices(full_coordinates(traj))


def full_trajectory(times, coordinates, heat, work, spectra):
    """A Trajectory that keeps all d^2 of its (m, d^2) coordinates, unit step and no drift."""
    m, n = coordinates.shape
    return Trajectory(times=times, coordinates=coordinates, support=np.arange(n), heat=heat,
                      work=work, spectra=spectra, trace_drifts=np.zeros(m),
                      max_step_trace_drift=0.0, dt=1.0, n_steps=m - 1)

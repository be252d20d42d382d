"""Markovian master-equation propagation with heat/work accounting.

drho/dt = -i [H(t), rho] + sum_mu gamma_mu (L rho L^dag - {L^dag L, rho}/2)

``augmented_generators`` is the only definition of these dynamics. It turns
protocol values at an array of times into generators of the augmented state
y = [vec rho, Q, W] (row-major vec), whose two extra rows carry the
dissipated-heat and work integrals

    Q(t) = -int_0^t Tr[H(t') drho/dt'] dt',   W(t) = int_0^t Tr[dH/dt' rho] dt'.

Integration is classical fixed-step RK4. Because the augmented generator is
linear, one RK4 step is the exact linear map S = I + h/6 (K1 + 2 K2 + 2 K3 + K4),
formed by batched matrix products; heat and work are integrated with the same
stage weights as the state, which keeps the first law dE_S = W - Q at
integrator accuracy. Driven models build the maps of STEP_BLOCK steps at a
time from the block's 2 STEP_BLOCK + 1 stage times and advance one
matrix-vector product per step; undriven models build S once and jump from
sample to sample with powers of S. States are Hermitized and
trace-renormalized at every sample (not every step); the correction is
recorded so that masking of real errors stays detectable.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatch,
    PositivityError,
    ProtocolDomainError,
    StabilityError,
    UndrivenModelWarning,
)
from .qstate import DensityMatrix

_STEP_DRIFT_LIMIT = 1e-6
_MIN_EIG_LIMIT = -1e-6
_SPECTRAL_RADIUS_LIMIT = 1.0 + 1e-9
_COARSE_STEP = 0.1

# Driven step maps are built this many steps at a time: large enough that
# protocol evaluation and matrix products are batched, small enough that the
# maps of a long run never sit in memory at once.
STEP_BLOCK = 128


@dataclass(frozen=True)
class JumpChannel:
    """One dissipation channel: damping rate gamma >= 0 and operator protocol.

    ``operator_protocol`` maps a time to a (d, d) operator. Called with a 1-D
    array of m times it must return either the (m, d, d) stack of operators
    or one (d, d) operator that holds at every time.
    """

    rate: float
    operator_protocol: Callable[[float], np.ndarray]

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValueError(f"channel rate must be >= 0, got {self.rate}")

    @classmethod
    def constant(cls, rate: float, operator: np.ndarray) -> "JumpChannel":
        op = linalg.as_operator(operator).copy()
        op.setflags(write=False)
        return cls(rate=rate, operator_protocol=lambda t: op)

    def operator(self, t: float) -> np.ndarray:
        try:
            return linalg.as_operator(self.operator_protocol(t))
        except Exception as exc:
            raise ProtocolDomainError(f"jump operator failed at t={t!r}: {exc}") from exc


@dataclass(frozen=True, eq=False)
class LindbladModel:
    """Hamiltonian protocol plus jump channels.

    ``driven = False`` asserts that the Hamiltonian and all channel operators
    are time independent; the propagator then builds the step map once.
    ``hamiltonian_rate_protocol`` optionally supplies the analytic dH/dt used
    by the work integral; otherwise a central finite difference with step
    1e-6 * protocol_timescale is used.

    Every protocol maps a time to a (d, d) matrix. Called with a 1-D array of
    m times it must return either the (m, d, d) stack of values or one
    (d, d) matrix that holds at every time; the propagator evaluates whole
    blocks of stage times in one call.
    """

    dim: int
    hamiltonian_protocol: Callable[[float], np.ndarray]
    channels: tuple[JumpChannel, ...]
    driven: bool = False
    hamiltonian_rate_protocol: Callable[[float], np.ndarray] | None = None
    protocol_timescale: float = 1.0

    def hamiltonian(self, t: float) -> np.ndarray:
        try:
            h = linalg.as_operator(self.hamiltonian_protocol(t))
        except Exception as exc:
            raise ProtocolDomainError(f"Hamiltonian failed at t={t!r}: {exc}") from exc
        if h.shape != (self.dim, self.dim):
            raise ProtocolDomainError(f"Hamiltonian shape {h.shape} != dim {self.dim}")
        return h


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled propagation output with accumulated heat/work and diagnostics.

    ``min_eigenvalues`` holds the smallest state eigenvalue at each sample.
    ``max_step_trace_drift`` is the largest change of Tr rho made by one step:
    measured at every step for driven models, and for undriven models the
    bound |1^T S - 1^T| of the step map S on states of unit Frobenius norm.
    ``cumulative_trace_drift`` is the sum over samples of |Tr rho - 1|
    removed by renormalization there.
    """

    times: np.ndarray
    states: tuple[DensityMatrix, ...]
    heat: np.ndarray
    work: np.ndarray
    min_eigenvalues: np.ndarray
    max_step_trace_drift: float
    cumulative_trace_drift: float
    dt: float
    n_steps: int


def protocol_values(protocol: Callable[..., np.ndarray], times: np.ndarray,
                    dim: int, what: str) -> np.ndarray:
    """(m, dim, dim) values of a protocol at m times; constants are broadcast."""
    try:
        values = np.asarray(protocol(times), dtype=np.complex128)
        return np.broadcast_to(values, (len(times), dim, dim))
    except Exception as exc:
        raise ProtocolDomainError(
            f"{what} failed at t in [{times[0]!r}, {times[-1]!r}]: {exc}") from exc


def _hamiltonian_rates(model: LindbladModel, times: np.ndarray) -> np.ndarray:
    if model.hamiltonian_rate_protocol is not None:
        return protocol_values(model.hamiltonian_rate_protocol, times, model.dim, "dH/dt")
    h_fd = 1e-6 * model.protocol_timescale
    ham = model.hamiltonian_protocol
    return (protocol_values(ham, times + h_fd, model.dim, "Hamiltonian")
            - protocol_values(ham, times - h_fd, model.dim, "Hamiltonian")) / (2.0 * h_fd)


def _transpose(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched Kronecker product: vec(A rho B) = kron(A, B^T) vec(rho), row-major."""
    d = a.shape[-1]
    return (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(-1, d * d, d * d)


def augmented_generators(model: LindbladModel, times: np.ndarray) -> np.ndarray:
    """Generators of y = [vec rho, Q, W] at each time, shape (m, d^2 + 2, d^2 + 2).

    The leading d^2 x d^2 block is the Liouvillian on row-major vec(rho);
    row d^2 is dQ/dt = -Tr[H L(rho)] and row d^2 + 1 is dW/dt = Tr[dH/dt rho]
    (zero for undriven models). The Q and W columns are zero.
    """
    times = np.asarray(times, dtype=float)
    d, n = model.dim, model.dim ** 2
    h = linalg.require_hermitian(protocol_values(model.hamiltonian_protocol, times, d,
                                                 "Hamiltonian"))
    # With K = H - (i/2) sum_mu gamma_mu L^dag L the generator is
    # -i (K rho - rho K^dag) + sum_mu gamma_mu L rho L^dag.
    k_eff = h.copy()
    jumps: np.ndarray | float = 0.0
    for ch in model.channels:
        if ch.rate == 0.0:
            continue
        l_op = protocol_values(ch.operator_protocol, times, d, "jump operator")
        k_eff -= (0.5j * ch.rate) * (linalg.adjoint(l_op) @ l_op)
        jumps = jumps + ch.rate * _kron(l_op, l_op.conj())
    eye = np.eye(d, dtype=np.complex128)
    liou = -1j * (_kron(k_eff, eye) - _kron(eye, k_eff.conj())) + jumps

    gen = np.zeros((len(times), n + 2, n + 2), dtype=np.complex128)
    gen[:, :n, :n] = liou
    # Tr[A X] = vec(A^T) . vec(X) for row-major vec.
    gen[:, n, :n] = -(_transpose(h).reshape(-1, 1, n) @ liou)[:, 0]
    if model.driven:
        gen[:, n + 1, :n] = _transpose(_hamiltonian_rates(model, times)).reshape(-1, n)
    return gen


def generator(model: LindbladModel, t: float, rho: DensityMatrix | np.ndarray) -> np.ndarray:
    """Right-hand side of the master equation at (t, rho): the Liouvillian
    block of ``augmented_generators`` applied to vec(rho).

    Returns a traceless Hermitian matrix for a valid Hermitian input.
    """
    r = rho.matrix if isinstance(rho, DensityMatrix) else linalg.as_operator(rho)
    d = model.dim
    liou = augmented_generators(model, np.array([float(t)]))[0, :d * d, :d * d]
    return (liou @ r.ravel()).reshape(d, d)


def hamiltonian_rate(model: LindbladModel, t: float) -> np.ndarray:
    """dH/dt at time t: analytic protocol when available, else central difference."""
    if not model.driven:
        warnings.warn("hamiltonian_rate of an undriven model is identically zero",
                      UndrivenModelWarning, stacklevel=2)
        return np.zeros((model.dim, model.dim), dtype=np.complex128)
    return np.array(_hamiltonian_rates(model, np.array([float(t)]))[0])


def _rk4_step_maps(a_start: np.ndarray, a_mid: np.ndarray, a_end: np.ndarray,
                   dt: float) -> np.ndarray:
    """Exact one-step maps of classical RK4 for y' = A(t) y, batched over steps.

    ``a_start``, ``a_mid`` and ``a_end`` hold A at t, t + dt/2 and t + dt.
    """
    eye = np.eye(a_start.shape[-1], dtype=np.complex128)
    k1 = a_start
    k2 = a_mid @ (eye + (0.5 * dt) * k1)
    k3 = a_mid @ (eye + (0.5 * dt) * k2)
    k4 = a_end @ (eye + dt * k3)
    return eye + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _warn_if_coarse(gen: np.ndarray, n: int, dt: float) -> bool:
    """Warn when dt times the largest Frobenius norm of a Liouvillian in ``gen``
    (a bound on its spectral radius) reaches 0.1; return whether it warned."""
    scale = dt * float(np.sqrt(np.max(np.sum(np.abs(gen[:, :n, :n]) ** 2, axis=(1, 2)))))
    if scale < _COARSE_STEP:
        return False
    warnings.warn(f"dt * generator scale = {scale:.3g} >= {_COARSE_STEP}; "
                  "accuracy may degrade", stacklevel=4)
    return True


class _Samples:
    """Renormalizes, checks and records the propagated state at sample steps."""

    def __init__(self, dim: int, dt: float) -> None:
        self.dim, self.dt = dim, dt
        self.states: list[DensityMatrix] = []
        self.rows: list[tuple[float, float, float, float]] = []  # t, Q, W, min eig
        self.cumulative_drift = 0.0

    def take(self, y: np.ndarray, step: int) -> np.ndarray:
        """Record y at ``step``; return y with rho Hermitized and renormalized."""
        d, n = self.dim, self.dim ** 2
        rho = y[:n].reshape(d, d)
        rho = (rho + rho.conj().T) * 0.5
        tr = float(np.trace(rho).real)
        self.cumulative_drift += abs(tr - 1.0)
        rho = rho / tr
        min_eig = float(np.linalg.eigvalsh(rho)[0])
        if min_eig < _MIN_EIG_LIMIT:
            raise PositivityError(f"min eigenvalue {min_eig:.3e} at t={step * self.dt!r}")
        self.states.append(DensityMatrix.from_matrix(rho, check=False))
        self.rows.append((step * self.dt, float(y[n].real), float(y[n + 1].real), min_eig))
        out = y.copy()
        out[:n] = rho.ravel()
        return out

    def trajectory(self, max_step_drift: float, n_steps: int) -> Trajectory:
        times, heat, work, mins = (np.array(c) for c in zip(*self.rows))
        return Trajectory(times=times, states=tuple(self.states), heat=heat, work=work,
                          min_eigenvalues=mins, max_step_trace_drift=max_step_drift,
                          cumulative_trace_drift=self.cumulative_drift, dt=self.dt,
                          n_steps=n_steps)


def propagate(
    model: LindbladModel,
    rho0: DensityMatrix,
    t_end: float,
    dt: float,
    n_samples: int,
) -> Trajectory:
    """RK4 propagation over [0, t_end] retaining n_samples uniform samples.

    The step count is ceil(t_end / dt); dt is shrunk to divide t_end exactly.
    Warns when dt times the generator scale reaches 0.1 anywhere on the run.
    Raises ``StabilityError`` when a step is unstable: for driven models, one
    step drifts the trace by more than 1e-6 or leaves a state of Frobenius
    norm above 10; for undriven models, the step map fails the same trace
    bound or has spectral radius above 1 + 1e-9. Raises ``PositivityError``
    when a sampled state has an eigenvalue below -1e-6.
    """
    if dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be positive")
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    d = model.dim
    if rho0.matrix.shape != (d, d):
        raise DimensionMismatch(f"initial state shape {rho0.matrix.shape} != dim {d}")
    n_steps = max(1, math.ceil(t_end / dt - 1e-12))
    if n_samples > n_steps + 1:
        raise ValueError(f"n_samples {n_samples} exceeds available steps {n_steps} + 1")
    dt_eff = t_end / n_steps

    sample_idx = np.unique(np.rint(np.linspace(0, n_steps, n_samples)).astype(int))
    if len(sample_idx) != n_samples:
        raise ValueError("sample grid collapsed; reduce n_samples")

    y = np.zeros(d * d + 2, dtype=np.complex128)
    y[:d * d] = rho0.matrix.ravel()
    samples = _Samples(d, dt_eff)
    y = samples.take(y, 0)
    advance = _advance_driven if model.driven else _advance_undriven
    max_drift = advance(model, y, dt_eff, sample_idx.tolist(), samples)
    return samples.trajectory(max_drift, n_steps)


def _advance_driven(model: LindbladModel, y: np.ndarray, dt: float,
                    sample_idx: list[int], samples: _Samples) -> float:
    """Step through the run one map at a time; return the largest per-step trace drift."""
    n = model.dim ** 2
    trace_row = np.eye(model.dim, dtype=np.complex128).ravel()
    targets = set(sample_idx)
    n_steps = sample_idx[-1]
    tr, max_drift, warned = 1.0, 0.0, False
    for first in range(0, n_steps, STEP_BLOCK):
        count = min(STEP_BLOCK, n_steps - first)
        gen = augmented_generators(model, (first + 0.5 * np.arange(2 * count + 1)) * dt)
        warned = warned or _warn_if_coarse(gen, n, dt)
        maps = _rk4_step_maps(gen[:-1:2], gen[1::2], gen[2::2], dt)
        for step, step_map in enumerate(maps, first + 1):
            y = step_map @ y
            rho = y[:n]
            new_tr = float((trace_row @ rho).real)
            drift = abs(new_tr - tr)
            if drift > _STEP_DRIFT_LIMIT:
                raise StabilityError(f"trace drift {drift:.3e} in one step at t={step * dt!r}")
            # A unit-trace positive state has Frobenius norm <= 1; large growth means
            # the step size is unstable even when the trace happens to be preserved.
            frob = math.sqrt(float(np.vdot(rho, rho).real))
            if not frob <= 10.0:
                raise StabilityError(f"state norm {frob:.3e} after one step at t={step * dt!r}")
            max_drift = max(max_drift, drift)
            tr = new_tr
            if step in targets:
                y = samples.take(y, step)
                tr = 1.0
    return max_drift


def _advance_undriven(model: LindbladModel, y: np.ndarray, dt: float,
                      sample_idx: list[int], samples: _Samples) -> float:
    """Jump from sample to sample with powers of the one step map; return its trace bound."""
    n = model.dim ** 2
    gen = augmented_generators(model, np.zeros(1))
    _warn_if_coarse(gen, n, dt)
    step_map = _rk4_step_maps(gen, gen, gen, dt)[0]
    trace_row = np.eye(model.dim).ravel()
    drift = float(np.linalg.norm(trace_row @ step_map[:n, :n] - trace_row))
    if drift > _STEP_DRIFT_LIMIT:
        raise StabilityError(f"step map drifts the trace by up to {drift:.3e} per step")
    radius = float(np.max(np.abs(np.linalg.eigvals(step_map[:n, :n]))))
    if radius > _SPECTRAL_RADIUS_LIMIT:
        raise StabilityError(f"step map spectral radius {radius:.6g} > 1 at dt={dt!r}")
    powers: dict[int, np.ndarray] = {}
    for prev, step in zip(sample_idx, sample_idx[1:]):
        gap = step - prev
        if gap not in powers:
            powers[gap] = np.linalg.matrix_power(step_map, gap)
        y = samples.take(powers[gap] @ y, step)
    return drift

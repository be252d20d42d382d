"""Markovian master-equation propagation with heat/work accounting.

drho/dt = -i [H(t), rho] + sum_mu gamma_mu (L rho L^dag - {L^dag L, rho}/2)

``augmented_generators`` is the only definition of these dynamics. It turns
protocol values at an array of times into generators of the augmented state
y = [vec rho, Q, W] (row-major vec), whose two extra rows carry the
dissipated-heat and work integrals

    Q(t) = -int_0^t Tr[H(t') drho/dt'] dt',   W(t) = int_0^t Tr[dH/dt' rho] dt'.

Propagation runs in real orthonormal Hermitian coordinates of rho (x_ii =
rho_ii; x_ij = sqrt(2) Re rho_ij and x_ji = sqrt(2) Im rho_ij for i < j), in
which ``real_generators`` makes each generator real, exactly up to rounding,
keeping its Frobenius norm, spectrum and trace row. One RK4 step is the exact
linear map S = I + h/6 (K1 + 2 K2 + 2 K3 + K4); heat and work share the stage
weights of the state, which keeps dE_S = W - Q at integrator accuracy. Driven
models build the maps of STEP_BLOCK steps at a time and multiply those between
two samples pairwise into one segment product; undriven models use powers of
their one map. One sample loop applies them, renormalizes the trace at each
sample (the correction is recorded) and checks the state norm; the trace-row
defect |1^T S - 1^T| of every step map and the positivity of the states are
checked on arrays.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterator

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

    ``states`` is the (m, d, d) complex array of the sampled density matrices
    and ``min_eigenvalues`` holds the smallest eigenvalue of each.
    ``max_step_trace_drift`` is, for driven and undriven models alike, the
    largest trace-row defect |1^T S - 1^T| over the step maps S: the most one
    step can change Tr rho of a state of unit Frobenius norm.
    ``cumulative_trace_drift`` is the sum over samples of |Tr rho - 1|
    removed by renormalization there.
    """

    times: np.ndarray
    states: np.ndarray
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
        k_eff -= (0.5j * ch.rate) * np.einsum("...ki,...kj->...ij", l_op.conj(), l_op)
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


@functools.lru_cache(maxsize=None)
def _coordinates(dim: int) -> tuple[np.ndarray, ...]:
    """z, P, w0, i0, w1, i1 of the real coordinates of v = [vec rho, Q, W].

    x = Re(z * v), z = sqrt(2) above the diagonal of rho, i sqrt(2) below it and
    1 elsewhere: on Hermitian rho, the unitary T = (diag z + diag(conj z) P) / 2
    with P the transpose permutation. A generator A that preserves Hermiticity
    has P A P = conj(A), so T A T^dag = Re[(z z^dag / 2) * A + (z z^T / 2) * A P],
    whose coefficients are real or imaginary: in the interleaved float view f
    of A, T A T^dag = w0 f[i0] + w1 f[i1].
    """
    size = dim * dim + 2
    rows, cols = np.divmod(np.arange(size), dim)
    z = np.select([rows < cols, (cols < rows) & (rows < dim)], [2 ** 0.5, 2 ** 0.5 * 1j], 1 + 0j)
    perm = np.where(rows < dim, cols * dim + rows, np.arange(size))
    cells, terms = np.arange(size * size, dtype=np.int32).reshape(size, size), [z, perm]
    for coef, picks in ((np.outer(z, z.conj()) / 2, cells), (np.outer(z, z) / 2, cells[:, perm])):
        imag = coef.imag != 0
        terms += [np.where(imag, -coef.imag, coef.real).ravel(), (2 * picks + imag).ravel()]
    for term in terms:  # shared by every caller through the cache
        term.setflags(write=False)
    return tuple(terms)


def hermitian_coordinates(rho: np.ndarray) -> np.ndarray:
    """Real coordinates (..., d^2) of Hermitian (..., d, d) matrices."""
    rho = np.asarray(rho)
    n = rho.shape[-1] ** 2
    return (_coordinates(rho.shape[-1])[0][:n] * rho.reshape(*rho.shape[:-2], n)).real


def density_matrices(x: np.ndarray) -> np.ndarray:
    """Exactly Hermitian (..., d, d) matrices of real coordinates (..., d^2)."""
    d, n = math.isqrt(x.shape[-1]), x.shape[-1]
    z, perm = (a[:n] for a in _coordinates(d)[:2])
    return ((0.5 * z.conj()) * x + (0.5 * z[perm]) * x[..., perm]).reshape(*x.shape[:-1], d, d)


def real_generators(gen: np.ndarray) -> np.ndarray:
    """Real generators T A T^dag of Hermiticity-preserving complex generators A
    of [vec rho, Q, W], shape (..., d^2 + 2, d^2 + 2)."""
    w0, i0, w1, i1 = _coordinates(math.isqrt(gen.shape[-1]))[2:]
    flat = np.ascontiguousarray(gen, np.complex128).view(np.float64).reshape(*gen.shape[:-2], -1)
    return (w0 * flat[..., i0] + w1 * flat[..., i1]).reshape(gen.shape)


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
    eye = np.eye(a_start.shape[-1])
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


def _trace_row_defects(maps: np.ndarray, dim: int, first: int, dt: float) -> float:
    """Largest |1^T S - 1^T| over the rho blocks of the maps S of steps first + 1, ...;
    ``StabilityError`` names the time of the first step beyond 1e-6."""
    n = dim * dim
    defects = np.linalg.norm(maps[:, :n:dim + 1, :n].sum(axis=1) - np.eye(dim).ravel(), axis=-1)
    bad = np.flatnonzero(defects > _STEP_DRIFT_LIMIT)
    if bad.size:
        raise StabilityError(f"trace drift up to {defects[bad[0]]:.3e} in one step"
                             f" at t={(first + 1 + int(bad[0])) * dt!r}")
    return float(np.max(defects))


def _driven_maps(model: LindbladModel, dt: float,
                 sample_idx: np.ndarray) -> Iterator[tuple[np.ndarray, float]]:
    """Yield the product of the step maps between each pair of consecutive samples,
    with the largest trace-row defect of the maps built so far."""
    n, k = model.dim ** 2, model.dim ** 2 + 2
    n_steps, max_defect, warned, carry = int(sample_idx[-1]), 0.0, False, np.eye(k)
    for first in range(0, n_steps, STEP_BLOCK):
        count = min(STEP_BLOCK, n_steps - first)
        gen = real_generators(
            augmented_generators(model, (first + 0.5 * np.arange(2 * count + 1)) * dt))
        warned = warned or _warn_if_coarse(gen, n, dt)
        maps = _rk4_step_maps(gen[:-1:2], gen[1::2], gen[2::2], dt)
        max_defect = max(max_defect, _trace_row_defects(maps, model.dim, first, dt))
        # Segments end at the block's samples and last step; each is padded with
        # identity maps (index ``count``) to 2^j maps and multiplied pairwise.
        ends = sample_idx[(sample_idx > first) & (sample_idx <= first + count)] - first
        bounds = np.union1d(ends, [count])
        starts = np.concatenate([[0], bounds[:-1]])
        idx = starts[:, None] + np.arange(1 << int(np.max(bounds - starts) - 1).bit_length())
        idx[idx >= bounds[:, None]] = count
        products = np.concatenate([maps, np.eye(k)[None]])[idx]
        while products.shape[1] > 1:
            products = products[:, 1::2] @ products[:, ::2]
        products = products[:, 0]
        products[0] = products[0] @ carry
        yield from ((product, max_defect) for product in products[:len(ends)])
        carry = products[-1] if len(bounds) > len(ends) else np.eye(k)


def _undriven_maps(model: LindbladModel, dt: float,
                   sample_idx: np.ndarray) -> Iterator[tuple[np.ndarray, float]]:
    """The power of the one step map spanning each sample gap, with its trace-row defect."""
    n = model.dim ** 2
    gen = real_generators(augmented_generators(model, np.zeros(1)))
    _warn_if_coarse(gen, n, dt)
    step_map = _rk4_step_maps(gen, gen, gen, dt)
    defect = _trace_row_defects(step_map, model.dim, 0, dt)
    radius = float(np.max(np.abs(np.linalg.eigvals(step_map[0, :n, :n]))))
    if radius > _SPECTRAL_RADIUS_LIMIT:
        raise StabilityError(f"step map spectral radius {radius:.6g} > 1 at dt={dt!r}")
    gaps = np.diff(sample_idx).tolist()
    powers = {gap: np.linalg.matrix_power(step_map[0], gap) for gap in set(gaps)}
    return ((powers[gap], defect) for gap in gaps)


def step_count(t_end: float, dt: float) -> int:
    """Number of RK4 steps over [0, t_end]: ceil(t_end / dt), at least 1."""
    return max(1, math.ceil(t_end / dt - 1e-12))


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
    Raises ``StabilityError`` when a step map changes the trace of a unit-norm
    state by more than 1e-6, an undriven step map has spectral radius above
    1 + 1e-9 or a sampled state has Frobenius norm above 10, and
    ``PositivityError`` when a sampled state has an eigenvalue below -1e-6.
    """
    from .thermo import sample_blocks  # thermo imports this module

    if dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be positive")
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    d, n = model.dim, model.dim ** 2
    if rho0.matrix.shape != (d, d):
        raise DimensionMismatch(f"initial state shape {rho0.matrix.shape} != dim {d}")
    n_steps = step_count(t_end, dt)
    if n_samples > n_steps + 1:
        raise ValueError(f"n_samples {n_samples} exceeds available steps {n_steps} + 1")
    dt_eff = t_end / n_steps

    sample_idx = np.unique(np.rint(np.linspace(0, n_steps, n_samples)).astype(int))
    if len(sample_idx) != n_samples:
        raise ValueError("sample grid collapsed; reduce n_samples")
    times = sample_idx * dt_eff

    # Sample 0 is the initial state, reached by the identity.
    segments = itertools.chain([(np.eye(n + 2), 0.0)], (
        _driven_maps if model.driven else _undriven_maps)(model, dt_eff, sample_idx))
    y = np.concatenate([hermitian_coordinates(rho0.matrix), [0.0, 0.0]])
    states = np.empty((n_samples, d, d), dtype=np.complex128)
    # The loop writes each sample's real coordinates into the first half of its
    # row of ``states``; each block is expanded in place after the loop.
    coords = states.view(np.float64).reshape(n_samples, 2 * n)[:, :n]
    heat, work, cumulative = np.empty(n_samples), np.empty(n_samples), 0.0
    for i, (segment, max_defect) in enumerate(segments):
        y = segment @ y
        # A unit-trace positive state has Frobenius norm <= 1; large growth means
        # the step size is unstable even when the trace happens to be preserved.
        frob = math.sqrt(float(y[:n] @ y[:n]))
        if not frob <= 10.0:
            raise StabilityError(f"state norm {frob:.3e} at t={times[i].item()!r}")
        tr = float(y[:n:d + 1].sum())
        cumulative += abs(tr - 1.0)
        y[:n] /= tr
        coords[i], heat[i], work[i] = y[:n], y[n], y[n + 1]

    mins = np.empty(n_samples)
    for b in sample_blocks(n_samples):
        states[b] = density_matrices(coords[b])
        mins[b] = np.linalg.eigvalsh(states[b])[:, 0]
    bad = np.flatnonzero(mins < _MIN_EIG_LIMIT)
    if bad.size:
        raise PositivityError(f"min eigenvalue {mins[bad[0]]:.3e} at t={times[bad[0]].item()!r}")
    return Trajectory(times=times, states=states, heat=heat, work=work, min_eigenvalues=mins,
                      max_step_trace_drift=max_defect, cumulative_trace_drift=cumulative,
                      dt=dt_eff, n_steps=n_steps)

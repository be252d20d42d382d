"""Markovian master-equation propagation with heat/work accounting.

drho/dt = -i [H(t), rho] + sum_mu gamma_mu (L rho L^dag - {L^dag L, rho}/2)

``augmented_generators`` is the only definition of these dynamics. It turns
protocol values at an array of times into real generators of the augmented
state y = [x, Q, W], where x holds the real orthonormal Hermitian coordinates
of rho (x_ii = rho_ii; x_ij = sqrt(2) Re rho_ij and x_ji = sqrt(2) Im rho_ij
for i < j) and the two extra rows carry the dissipated-heat and work integrals

    Q(t) = -int_0^t Tr[H(t') drho/dt'] dt',   W(t) = int_0^t Tr[dH/dt' rho] dt'.

Only the d^2 x d^2 complex Liouvillian is formed, from the jump terms and d
strided adds each of -i K (x) I and +i I (x) conj(K), with no Kronecker
product against the identity; one elementwise similarity makes it real, and the
Q and W rows are inner products with the coordinates of H and dH/dt. One RK4
step is the exact linear map S = I + h/6 (K1 + 2 K2 + 2 K3 + K4), formed in
three reused buffers; heat and work share the stage weights of the state, which
keeps dE_S = W - Q at integrator accuracy. Driven models build the maps one
block at a time, as many steps as fit in STEP_BLOCK_BYTES, and multiply those
between two samples pairwise into one segment product; undriven models use
powers of their one map. One sample loop applies them, renormalizes the trace
at each sample (the correction is recorded) and checks the state norm; the
trace-row defect |1^T S - 1^T| of every step map and the positivity of the
states are checked on arrays.
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

# Driven step maps are built one block of steps at a time, each block's maps
# taking at most this many bytes: max(1, STEP_BLOCK_BYTES // (8 k^2)) steps for
# k x k real maps, k = d^2 + 2, so 512 steps for a qubit and 2 for d = 9. The
# block's generators, stage buffers and maps then stay in cache, protocol
# evaluation and matrix products are still batched, and the maps of a long run
# never sit in memory at once.
STEP_BLOCK_BYTES = 147_456


def steps_per_block(dim: int) -> int:
    """Driven steps whose real step maps fit in STEP_BLOCK_BYTES, at least one."""
    return max(1, STEP_BLOCK_BYTES // (8 * (dim * dim + 2) ** 2))


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


@functools.lru_cache(maxsize=None)
def _coordinates(dim: int) -> tuple[np.ndarray, ...]:
    """z, P and the similarity terms (w, c, p) x 2 of the real coordinates of vec rho.

    x = Re(z * vec rho), z = sqrt(2) above the diagonal of rho, i sqrt(2) below
    it and 1 on it: on Hermitian rho, the unitary T = (diag z + diag(conj z) P) / 2
    with P the transpose permutation. A Liouvillian A that preserves
    Hermiticity has P A P = conj(A), so T A T^dag = Re[(z z^dag / 2) * A +
    (z z^T / 2) * A P], whose coefficients are real or imaginary: entry (j, k)
    is the sum over both terms of w[j, k] times the real (p = 0) or imaginary
    (p = 1) part of A at flat index c[j, k]. Each w has a trailing unit axis for
    time.
    """
    n = dim * dim
    rows, cols = np.divmod(np.arange(n), dim)
    z = np.select([rows < cols, cols < rows], [2 ** 0.5, 2 ** 0.5 * 1j], 1 + 0j)
    perm = cols * dim + rows
    cells, terms = np.arange(n * n).reshape(n, n), [z, perm]
    for coef, picks in ((np.outer(z, z.conj()) / 2, cells), (np.outer(z, z) / 2, cells[:, perm])):
        imag = coef.imag != 0
        terms += [np.where(imag, -coef.imag, coef.real)[..., None], picks, imag.astype(int)]
    for term in terms:  # shared by every caller through the cache
        term.setflags(write=False)
    return tuple(terms)


def hermitian_coordinates(rho: np.ndarray) -> np.ndarray:
    """Real coordinates (..., d^2) of Hermitian (..., d, d) matrices."""
    rho = np.asarray(rho)
    n = rho.shape[-1] ** 2
    return (_coordinates(rho.shape[-1])[0] * rho.reshape(*rho.shape[:-2], n)).real


def density_matrices(x: np.ndarray) -> np.ndarray:
    """Exactly Hermitian (..., d, d) matrices of real coordinates (..., d^2)."""
    d = math.isqrt(x.shape[-1])
    z, perm = _coordinates(d)[:2]
    return ((0.5 * z.conj()) * x + (0.5 * z[perm]) * x[..., perm]).reshape(*x.shape[:-1], d, d)


def _real_liouvillians(model: LindbladModel, times: np.ndarray, h: np.ndarray) -> np.ndarray:
    """A = T L T^dag at each time, as a (d^2, d^2, m) array, from the Hamiltonians h.

    Only the complex Liouvillian L is formed, in a (d, d, d, d, m) buffer that
    holds L[(a, b), (c, e)] at [a, b, c, e]: one contraction over the stacked
    channels fills it with sum_mu gamma_mu L_mu (x) conj(L_mu), and -i K (x) I
    and +i I (x) conj(K) are added on d strided slices each, with
    K = H - (i/2) sum_mu gamma_mu L_mu^dag L_mu. Time is the last, contiguous
    axis of every operator array, so each operation runs over all m times.
    """
    m, d, n = len(times), model.dim, model.dim ** 2
    # L rho = -i (K rho - rho K^dag) + sum_mu gamma_mu L_mu rho L_mu^dag, and
    # vec(A rho B) = (A (x) B^T) vec(rho) for row-major vec.
    minus_i_k = np.multiply(-1j, np.moveaxis(h, 0, -1), order="C")
    liou = np.zeros((d, d, d, d, m), dtype=np.complex128)
    channels = [ch for ch in model.channels if ch.rate != 0.0]
    if channels:  # stacked as (mu, d, d, m), each weighted by its rate
        ops = np.stack([np.moveaxis(protocol_values(ch.operator_protocol, times, d,
                                                    "jump operator"), 0, -1) for ch in channels])
        conj = ops.conj()
        weighted = np.array([ch.rate for ch in channels])[:, None, None, None] * ops
        minus_i_k -= 0.5 * np.einsum("ukit,ukjt->ijt", conj, weighted)
        np.einsum("uact,ubet->abcet", weighted, conj, out=liou)
    plus_i_conj_k = minus_i_k.conj()
    for j in range(d):
        liou[:, j, :, j] += minus_i_k
        liou[j, :, j, :] += plus_i_conj_k

    w0, c0, p0, w1, c1, p1 = _coordinates(d)[2:]
    parts = liou.reshape(n * n, m).view(np.float64).reshape(n * n, m, 2)
    real = w0 * parts[c0, :, p0]
    real += w1 * parts[c1, :, p1]
    return real


def augmented_generators(model: LindbladModel, times: np.ndarray) -> np.ndarray:
    """Real generators of y = [x, Q, W] at each time, shape (m, d^2 + 2, d^2 + 2).

    x = ``hermitian_coordinates(rho)``. The leading d^2 x d^2 block is
    A = T L T^dag for the complex Liouvillian L on row-major vec(rho) (see
    ``_coordinates``), built without Kronecker products against the identity
    (see ``_real_liouvillians``); row d^2 is dQ/dt = -Tr[H L(rho)] = -h . A x
    with h the coordinates of H, and row d^2 + 1 is dW/dt = Tr[dH/dt rho], the
    coordinates of dH/dt (zero for undriven models). The Q and W columns are
    zero.
    """
    times = np.asarray(times, dtype=float)
    n = model.dim ** 2
    h = linalg.require_hermitian(protocol_values(model.hamiltonian_protocol, times, model.dim,
                                                 "Hamiltonian"))
    real = _real_liouvillians(model, times, h)
    gen = np.zeros((len(times), n + 2, n + 2))
    gen[:, :n, :n] = np.moveaxis(real, -1, 0)
    gen[:, n, :n] = -np.einsum("tj,jkt->tk", hermitian_coordinates(h), real)
    if model.driven:
        gen[:, n + 1, :n] = hermitian_coordinates(_hamiltonian_rates(model, times))
    return gen


def generator(model: LindbladModel, t: float, rho: DensityMatrix | np.ndarray) -> np.ndarray:
    """Right-hand side of the master equation at (t, rho): the Liouvillian
    block of ``augmented_generators`` applied to the coordinates of rho.

    ``rho`` must be Hermitian; the result is exactly Hermitian, and traceless
    up to rounding.
    """
    r = rho.matrix if isinstance(rho, DensityMatrix) else linalg.as_operator(rho)
    n = model.dim ** 2
    liou = augmented_generators(model, np.array([float(t)]))[0, :n, :n]
    return density_matrices(liou @ hermitian_coordinates(r))


def hamiltonian_rate(model: LindbladModel, t: float) -> np.ndarray:
    """dH/dt at time t: analytic protocol when available, else central difference."""
    if not model.driven:
        warnings.warn("hamiltonian_rate of an undriven model is identically zero",
                      UndrivenModelWarning, stacklevel=2)
        return np.zeros((model.dim, model.dim), dtype=np.complex128)
    return np.array(_hamiltonian_rates(model, np.array([float(t)]))[0])


def _add_identity(maps: np.ndarray) -> np.ndarray:
    """Add I to each matrix of a C-contiguous (m, k, k) stack in place; return it."""
    maps.reshape(len(maps), -1)[:, ::maps.shape[-1] + 1] += 1.0
    return maps


def _rk4_step_maps(a_start: np.ndarray, a_mid: np.ndarray, a_end: np.ndarray,
                   dt: float) -> np.ndarray:
    """Exact one-step maps of classical RK4 for y' = A(t) y, batched over steps.

    ``a_start``, ``a_mid`` and ``a_end`` hold A at t, t + dt/2 and t + dt. With
    K1 = A(t), K2 = A(t + dt/2) (I + dt/2 K1), K3 = A(t + dt/2) (I + dt/2 K2) and
    K4 = A(t + dt) (I + dt K3) the map is I + dt/6 (K1 + 2 K2 + 2 K3 + K4). Three
    buffers are reused across the stages, and I is added on their diagonals.
    """
    stage = _add_identity(np.multiply(a_start, 0.5 * dt))
    total = np.matmul(a_mid, stage)  # K2
    _add_identity(np.multiply(total, 0.5 * dt, out=stage))
    k = np.matmul(a_mid, stage)  # K3
    total *= 2.0
    total += a_start
    _add_identity(np.multiply(k, dt, out=stage))
    k *= 2.0
    total += k
    total += np.matmul(a_end, stage, out=k)  # K4
    total *= dt / 6.0
    return _add_identity(total)


def _warn_if_coarse(gen: np.ndarray, n: int, dt: float) -> bool:
    """Warn when dt times the largest Frobenius norm of a Liouvillian in ``gen``
    (a bound on its spectral radius) reaches 0.1; return whether it warned."""
    liou = gen[:, :n, :n]
    scale = dt * float(np.sqrt(np.max(np.einsum("tij,tij->t", liou, liou))))
    if scale < _COARSE_STEP:
        return False
    warnings.warn(f"dt * generator scale = {scale:.3g} >= {_COARSE_STEP}; "
                  "accuracy may degrade", stacklevel=4)
    return True


def _trace_row_defects(maps: np.ndarray, dim: int, first: int, dt: float) -> float:
    """Largest |1^T S - 1^T| over the rho blocks of the maps S of steps first + 1, ...;
    ``StabilityError`` names the time of the first step beyond 1e-6."""
    n = dim * dim
    rows = np.einsum("tij->tj", maps[:, :n:dim + 1, :n]) - np.eye(dim).ravel()
    defects = np.sqrt(np.einsum("tj,tj->t", rows, rows))
    bad = np.flatnonzero(defects > _STEP_DRIFT_LIMIT)
    if bad.size:
        raise StabilityError(f"trace drift up to {defects[bad[0]]:.3e} in one step"
                             f" at t={(first + 1 + int(bad[0])) * dt!r}")
    return float(np.max(defects))


def _driven_maps(model: LindbladModel, dt: float,
                 sample_idx: np.ndarray) -> Iterator[tuple[np.ndarray, float]]:
    """Yield the product of the step maps between each pair of consecutive samples,
    with the largest trace-row defect of the maps built so far."""
    n, k, block = model.dim ** 2, model.dim ** 2 + 2, steps_per_block(model.dim)
    n_steps, max_defect, warned, carry = int(sample_idx[-1]), 0.0, False, np.eye(k)
    for first in range(0, n_steps, block):
        count = min(block, n_steps - first)
        gen = augmented_generators(model, (first + 0.5 * np.arange(2 * count + 1)) * dt)
        warned = warned or _warn_if_coarse(gen, n, dt)
        maps = _rk4_step_maps(gen[:-1:2], gen[1::2], gen[2::2], dt)
        del gen  # freed before the next block's generators are built
        max_defect = max(max_defect, _trace_row_defects(maps, model.dim, first, dt))
        # Segments end at the block's samples and last step; each is padded with
        # identity maps (index ``count``) to 2^j maps and multiplied pairwise.
        ends = sample_idx[(sample_idx > first) & (sample_idx <= first + count)] - first
        bounds = np.append(ends[ends < count], count)
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
    gen = augmented_generators(model, np.zeros(1))
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

    sample_idx = np.rint(np.linspace(0, n_steps, n_samples)).astype(int)
    if np.any(np.diff(sample_idx) == 0):
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

"""Markovian master-equation propagation with heat/work accounting.

drho/dt = -i [H(t), rho] + sum_mu gamma_mu (L rho L^dag - {L^dag L, rho}/2)

``augmented_generators`` is the only definition of these dynamics. It turns
protocol values at an array of times into real generators of the augmented
state y = [x, Q, W], where x holds the real orthonormal Hermitian coordinates
of rho (x_ii = rho_ii; x_ij = sqrt(2) Re rho_ij and x_ji = sqrt(2) Im rho_ij
for i < j) and the two extra rows carry the dissipated-heat and work integrals

    Q(t) = -int_0^t Tr[H(t') drho/dt'] dt',   W(t) = int_0^t Tr[dH/dt' rho] dt'.

The work integral uses the analytic dH/dt of the model's own protocol,
``hamiltonian_rate_protocol``; a model that supplies one is driven.

Only the d^2 x d^2 complex Liouvillian is formed, from the jump terms and d
strided adds each of -i K (x) I and +i I (x) conj(K), with no Kronecker product
against the identity; one elementwise similarity with the cached d^2 coordinate
map makes it real (no d^4 table is built), and the Q and W rows are inner
products with the coordinates of H and dH/dt. One RK4 step is the exact linear
map S = I + h/6 (K1 + 2 K2 + 2 K3 + K4), formed in three reused buffers; heat
and work share the stage weights of the state, which keeps dE_S = W - Q at
integrator accuracy. Driven models build the maps one block at a time, as many
steps as fit in STEP_BLOCK_BYTES, and multiply those between two samples
pairwise into one segment product; undriven models use powers of their one map.

A run is propagated one SAMPLE_BLOCK of samples at a time (``Propagation``):
the sample loop only applies the segments; the trace normalization, its record
and the state-norm check then run on the block's arrays, and after them the
positivity of its states, whose spectra are kept for the entropies downstream.
The trace-row defect |1^T S - 1^T| of every step map is checked as it is built.

An undriven run keeps only the coordinates its start can reach: the closure of
the start's nonzero coordinates under the nonzero pattern of the generator
(with the Q and W rows). Every other coordinate is an exact zero at every
sample, since each product that reaches it has an exact-zero factor; the
sample loop runs on the powers of the step map restricted to the closure, a
symmetry sector of the Lindbladian (Buca & Prosen, New J. Phys. 14, 073007,
2012). A driven run keeps every coordinate, since its pattern may change with
time.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator

import numpy as np

from . import linalg, qstate
from .errors import (
    DimensionMismatch,
    PositivityError,
    ProtocolDomainError,
    StabilityError,
)

_STEP_DRIFT_LIMIT = 1e-6
_SPECTRAL_RADIUS_LIMIT = 1.0 + 1e-9
_COARSE_STEP = 0.1

# Driven step maps are built one block of steps at a time, each block's maps
# taking at most this many bytes: max(1, STEP_BLOCK_BYTES // (8 k^2)) steps for
# k x k real maps, k = d^2 + 2, so 512 steps for a qubit and 2 for d = 9. The
# block's generators, stage buffers and maps then stay in cache, protocol
# evaluation and matrix products are still batched, and the maps of a long run
# never sit in memory at once.
STEP_BLOCK_BYTES = 147_456


# A run is propagated, evaluated and written this many samples at a time: the
# sampled states, their complex stacks (states, energy bases and their
# rotations), their bound rows and the text of the CSV outputs. Enough to batch
# the work, few enough that no per-sample array of a long run sits in memory at
# once.
SAMPLE_BLOCK = 256

# A block's complex stack of states is formed from at most this many bytes of
# full-width coordinates at a time: 32 samples at d = 9, a whole block of qubits.
# The transients of ``density_matrices`` are then a few times that size.
STATE_BLOCK_BYTES = 20_736


def steps_per_block(dim: int) -> int:
    """Driven steps whose real step maps fit in STEP_BLOCK_BYTES, at least one."""
    return max(1, STEP_BLOCK_BYTES // (8 * (dim * dim + 2) ** 2))


@dataclass(frozen=True)
class JumpChannel:
    """One dissipation channel: finite damping rate gamma >= 0 and operator protocol.

    ``operator_protocol`` maps a time to a (d, d) operator. Called with a 1-D
    array of m times it must return either the (m, d, d) stack of operators
    or one (d, d) operator that holds at every time.
    """

    rate: float
    operator_protocol: Callable[[float], np.ndarray]

    def __post_init__(self) -> None:
        if not 0 <= self.rate < math.inf:  # NaN fails too
            raise ValueError(f"channel rate must be finite and >= 0, got {self.rate!r}")

    @classmethod
    def constant(cls, rate: float, operator: np.ndarray) -> "JumpChannel":
        op = linalg.as_operator(operator).copy()
        op.setflags(write=False)
        return cls(rate=rate, operator_protocol=lambda t: op)


@dataclass(frozen=True, eq=False)
class LindbladModel:
    """Hamiltonian protocol plus jump channels.

    A model is driven exactly when it supplies ``hamiltonian_rate_protocol``,
    the analytic dH/dt of the work integral; without one, its Hamiltonian and
    channel operators are time independent and its step map is built once.

    Every protocol maps a time to a (d, d) matrix. Called with a 1-D array of
    m times it must return either the (m, d, d) stack of values or one
    (d, d) matrix that holds at every time; the propagator evaluates whole
    blocks of stage times in one call.
    """

    dim: int
    hamiltonian_protocol: Callable[[float], np.ndarray]
    channels: tuple[JumpChannel, ...]
    hamiltonian_rate_protocol: Callable[[float], np.ndarray] | None = None

    @property
    def driven(self) -> bool:
        return self.hamiltonian_rate_protocol is not None


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled propagation output with accumulated heat/work and diagnostics, of a
    whole run or of one block of its samples.

    ``coordinates`` is the (m, r) float array of the sampled states in the
    real coordinates of ``hermitian_coordinates``, each of unit trace, at the
    r ascending indices ``support`` into the d^2 coordinates (all of them for
    a driven model); every other coordinate is zero at every sample.
    ``full_coordinates`` gives a block of samples at full width, from which
    ``density_matrices`` forms the complex density matrices only where they
    are needed. ``spectra`` is the (m, d) array of the states' ascending
    eigenvalues, computed once for the positivity check and reused for every
    entropy of the states; ``min_eigenvalues`` is its first column.
    ``max_step_trace_drift`` is, for driven and undriven models alike, the
    largest trace-row defect |1^T S - 1^T| over the step maps S built up to
    the last sample: the most one step can change Tr rho of a state of unit
    Frobenius norm. ``trace_drifts`` holds |T_i / T_{i-1} - 1| at each sample
    i, with T_i the trace of the state propagated without renormalization and
    T_{-1} = 1: the |Tr rho - 1| that renormalizing at every sample would
    remove there. ``n_steps`` counts the steps of the whole run.
    """

    times: np.ndarray
    coordinates: np.ndarray
    support: np.ndarray
    heat: np.ndarray
    work: np.ndarray
    spectra: np.ndarray
    trace_drifts: np.ndarray
    max_step_trace_drift: float
    dt: float
    n_steps: int

    @property
    def min_eigenvalues(self) -> np.ndarray:
        return self.spectra[:, 0]

    def full_coordinates(self, block: slice) -> np.ndarray:
        """The (k, d^2) coordinates of the samples in ``block``, zero outside ``support``."""
        rows = self.coordinates[block]
        full = np.zeros((len(rows), self.spectra.shape[-1] ** 2))
        full[:, self.support] = rows
        return full

    def states(self) -> np.ndarray:
        """The (m, d, d) complex stack of ``density_matrices`` of every sample, formed
        STATE_BLOCK_BYTES of full-width coordinates at a time."""
        d = self.spectra.shape[-1]
        states = np.empty((len(self.coordinates), d, d), dtype=np.complex128)
        step = max(1, STATE_BLOCK_BYTES // (8 * d * d))
        for start in range(0, len(states), step):
            rows = slice(start, start + step)
            density_matrices(self.full_coordinates(rows), out=states[rows])
        return states


# The fields of a Trajectory with one row per sample.
_PER_SAMPLE = ("coordinates", "heat", "work", "spectra", "trace_drifts")


def join(times: np.ndarray, blocks: Iterable[Trajectory]) -> Trajectory:
    """The trajectory of consecutive blocks that cover the sample ``times``: each
    block's per-sample arrays are copied into those of the run as the block
    arrives, and the run keeps the last block's ``max_step_trace_drift``."""
    arrays: dict[str, np.ndarray] = {}
    start = 0
    for block in blocks:
        stop = start + len(block.times)
        for name in _PER_SAMPLE:
            part = getattr(block, name)
            if name not in arrays:
                arrays[name] = np.empty((len(times), *part.shape[1:]))
            arrays[name][start:stop] = part
        start = stop
    return replace(block, times=times, **arrays)


def protocol_values(protocol: Callable[..., np.ndarray], times: np.ndarray,
                    dim: int, what: str) -> np.ndarray:
    """(m, dim, dim) values of a protocol at m times; constants are broadcast."""
    try:
        values = np.asarray(protocol(times), dtype=np.complex128)
        return np.broadcast_to(values, (len(times), dim, dim))
    except Exception as exc:
        raise ProtocolDomainError(
            f"{what} failed at t in [{times[0]!r}, {times[-1]!r}]: {exc}") from exc


@functools.lru_cache(maxsize=None)
def _coordinates(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """z and the transpose permutation P of the real coordinates of vec rho.

    x = Re(z * vec rho), z = sqrt(2) above the diagonal of rho, i sqrt(2) below
    it and 1 on it: on Hermitian rho, the unitary T = (diag z + diag(conj z) P) / 2.
    Every coordinate change reads these d^2 entries, and so does the similarity
    that makes a Liouvillian real, so they are cached.
    """
    n = dim * dim
    rows, cols = np.divmod(np.arange(n), dim)
    z = np.select([rows < cols, cols < rows], [2 ** 0.5, 2 ** 0.5 * 1j], 1 + 0j)
    perm = cols * dim + rows
    for term in (z, perm):  # shared by every caller through the cache
        term.setflags(write=False)
    return z, perm


def hermitian_coordinates(rho: np.ndarray) -> np.ndarray:
    """Real coordinates (..., d^2) of Hermitian (..., d, d) matrices."""
    rho = np.asarray(rho)
    n = rho.shape[-1] ** 2
    return (_coordinates(rho.shape[-1])[0] * rho.reshape(*rho.shape[:-2], n)).real


def density_matrices(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Exactly Hermitian (..., d, d) matrices of real coordinates (..., d^2), written
    into the complex ``out`` when it is given."""
    d = math.isqrt(x.shape[-1])
    z, perm = _coordinates(d)
    grid = x.reshape(*x.shape[:-1], d, d)  # x[..., perm] is its transpose
    rho = np.multiply((0.5 * z.conj()).reshape(d, d), grid, out=out)
    rho += (0.5 * z[perm]).reshape(d, d) * np.swapaxes(grid, -1, -2)
    return rho


@functools.lru_cache(maxsize=None)
def _triangle_terms(dim: int) -> tuple[np.ndarray, ...]:
    """Gathers i, j and weights a, b, c of ``upper_triangle``'s columns a x_i + (b x_j + c)."""
    rows, cols = np.triu_indices(dim)
    strict, half = rows != cols, 0.5 * 2 ** 0.5
    upper, lower, k = rows * dim + cols, cols * dim + rows, int(strict.sum())
    # Re rho_rc (r <= c) = a x_rc + (b x_cr - 0); Im rho_rc (r < c) = half x_cr + (0 x_rc + 0)
    terms = [np.concatenate([upper, lower[strict]]), np.concatenate([lower, upper[strict]]),
             np.concatenate([np.where(strict, half, 0.5), np.full(k, half)]),
             np.concatenate([np.where(strict, 0.0, 0.5), np.zeros(k)]),
             np.concatenate([np.full(len(rows), -0.0), np.zeros(k)])]
    for term in terms:  # shared by every caller through the cache
        term.setflags(write=False)
    return tuple(terms)


def upper_triangle(x: np.ndarray) -> np.ndarray:
    """Re rho_ij for i <= j, then Im rho_ij for i < j, each in ``np.triu_indices``
    order: the (..., d^2) columns of the upper triangles of ``density_matrices(x)``,
    bit for bit, from real coordinates (..., d^2) in real arithmetic.

    rho_ii = x_ii / 2 + x_ii / 2 and, for i < j, Re rho_ij = x_ij / sqrt(2) + 0 x_ji
    and Im rho_ij = x_ji / sqrt(2) + 0 x_ij: the zero terms give an exact zero the
    sign, and an infinite coordinate the NaN, that the complex products give them.
    """
    i, j, a, b, c = _triangle_terms(math.isqrt(x.shape[-1]))
    columns = x[..., i]
    columns *= a
    rest = x[..., j]
    rest *= b
    rest += c
    columns += rest
    return columns


def _real_liouvillians(model: LindbladModel, times: np.ndarray, h: np.ndarray) -> np.ndarray:
    """A = T L T^dag at each time, as a (d^2, d^2, m) array, from the Hamiltonians h.

    Only the complex Liouvillian L is formed, in a (d, d, d, d, m) buffer that
    holds L[(a, b), (c, e)] at [a, b, c, e]: one contraction over the stacked
    channels fills it with sum_mu gamma_mu L_mu (x) conj(L_mu), and -i K (x) I
    and +i I (x) conj(K) are added on d strided slices each, with
    K = H - (i/2) sum_mu gamma_mu L_mu^dag L_mu. Time is the last, contiguous
    axis of every operator array, so each operation runs over all m times.

    L preserves Hermiticity, so P L P = conj(L), and with z, P and T of
    ``_coordinates`` T L T^dag = Re[(z z^dag / 2) * L + (z z^T / 2) * L P],
    formed elementwise in L's buffer.
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
        del ops  # each of these arrays is freed as soon as it is read, a block's peak
        minus_i_k -= 0.5 * np.einsum("ukit,ukjt->ijt", conj, weighted)
        np.einsum("uact,ubet->abcet", weighted, conj, out=liou)
        del conj, weighted  # freed, with K below, before the similarity
    plus_i_conj_k = minus_i_k.conj()
    for j in range(d):
        liou[:, j, :, j] += minus_i_k
        liou[j, :, j, :] += plus_i_conj_k
    del minus_i_k, plus_i_conj_k

    z, perm = _coordinates(d)
    liou = liou.reshape(n, n, m)
    swapped = np.take(liou, perm, axis=1)  # L P, C-ordered like L, unlike liou[:, perm]
    liou *= (np.multiply.outer(z, z.conj()) / 2)[..., None]
    swapped *= (np.multiply.outer(z, z) / 2)[..., None]
    liou += swapped
    return liou.real


def augmented_generators(model: LindbladModel, times: np.ndarray) -> np.ndarray:
    """Real generators of y = [x, Q, W] at each time, shape (m, d^2 + 2, d^2 + 2).

    x = ``hermitian_coordinates(rho)``. The leading d^2 x d^2 block is
    A = T L T^dag for the complex Liouvillian L on row-major vec(rho), built
    without Kronecker products against the identity and made real from the
    cached coordinates (see ``_real_liouvillians``); row d^2 is
    dQ/dt = -Tr[H L(rho)] = -h . A x with h the coordinates of H, and row d^2 + 1
    is dW/dt = Tr[dH/dt rho], the coordinates of ``hamiltonian_rate_protocol``
    (zero for undriven models). The Q and W columns are zero.
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
        rate = protocol_values(model.hamiltonian_rate_protocol, times, model.dim, "dH/dt")
        gen[:, n + 1, :n] = hermitian_coordinates(rate)
    return gen


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


def _generator_scale(gen: np.ndarray, n: int, dt: float) -> float:
    """dt times the largest Frobenius norm of a Liouvillian in ``gen``, a bound on
    its spectral radius."""
    liou = gen[:, :n, :n]
    return dt * float(np.sqrt(np.max(np.einsum("tij,tij->t", liou, liou))))


def _warn_if_coarse(scale: float, by: float | None = None) -> bool:
    """Warn when the generator scale reaches 0.1; return whether it warned. A driven
    run passes ``by``, the end of the steps whose largest scale it read."""
    if scale < _COARSE_STEP:
        return False
    measured = f"= {scale:.3g}" if by is None else f"reached {scale:.3g} by t={by!r},"
    warnings.warn(f"dt * generator scale {measured} >= {_COARSE_STEP}; accuracy may degrade",
                  stacklevel=4)
    return True


def _trace_row_defects(maps: np.ndarray, dim: int, first: int, dt: float) -> float:
    """Largest |1^T S - 1^T| over the rho blocks of the maps S of steps first + 1, ...;
    ``StabilityError`` names the time of the first non-finite map or defect beyond 1e-6."""
    n = dim * dim
    rows = np.einsum("tij->tj", maps[:, :n:dim + 1, :n]) - np.eye(dim).ravel()
    defects = np.sqrt(np.einsum("tj,tj->t", rows, rows))
    finite = np.isfinite(maps).all(axis=(1, 2))
    bad = np.flatnonzero(~(finite & (defects <= _STEP_DRIFT_LIMIT)))
    if bad.size:
        i = int(bad[0])
        raise StabilityError((f"trace drift up to {defects[i]:.3e} in one step" if finite[i]
                              else "non-finite step map") + f" at t={(first + 1 + i) * dt!r}")
    return float(np.max(defects))


def _driven_maps(model: LindbladModel, dt: float,
                 sample_idx: np.ndarray) -> Iterator[tuple[np.ndarray, float]]:
    """Yield the product of the step maps between each two consecutive samples,
    with the largest trace-row defect of the maps built so far; the maps are
    built one block of steps at a time. The coarse-step warning comes once, from
    the first block that reaches 0.1, with the largest scale from t = 0 to the
    block's end; a later block may reach more."""
    n, k, block = model.dim ** 2, model.dim ** 2 + 2, steps_per_block(model.dim)
    n_steps, max_defect, warned, carry = int(sample_idx[-1]), 0.0, False, np.eye(k)
    for first in range(0, n_steps, block):
        count = min(block, n_steps - first)
        # The generators and RK4 stages, about five times the maps' bytes, are formed
        # for half a block at a time; each step's map is the same either way.
        half, scale, halves = -(-count // 2), 0.0, []
        for start in range(first, first + count, half):
            steps = min(half, first + count - start)
            gen = augmented_generators(model, (start + 0.5 * np.arange(2 * steps + 1)) * dt)
            scale = max(scale, _generator_scale(gen, n, dt))
            halves.append(_rk4_step_maps(gen[:-1:2], gen[1::2], gen[2::2], dt))
            del gen  # freed before the next half's generators are built
        warned = warned or _warn_if_coarse(scale, (first + count) * dt)
        maps = np.concatenate(halves)
        del halves
        max_defect = max(max_defect, _trace_row_defects(maps, model.dim, first, dt))
        # Segments end at the block's samples and last step; each is padded with
        # identity maps (index ``count``) to 2^j maps and multiplied pairwise.
        ends = sample_idx[(sample_idx > first) & (sample_idx <= first + count)] - first
        bounds = np.append(ends[ends < count], count)
        starts = np.concatenate([[0], bounds[:-1]])
        idx = starts[:, None] + np.arange(1 << int(np.max(bounds - starts) - 1).bit_length())
        idx[idx >= bounds[:, None]] = count
        products = np.concatenate([maps, np.eye(k)[None]])[idx]
        del maps, idx  # the consumer of the products runs without them
        while products.shape[1] > 1:
            products = products[:, 1::2] @ products[:, ::2]
        products = products[:, 0]
        products[0] = products[0] @ carry
        carry = products[-1] if len(bounds) > len(ends) else np.eye(k)
        for product in products[:len(ends)]:
            yield product, max_defect


def _reachable(liou: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Indices of the coordinates that x' = A x can make nonzero from x0: the
    closure of the nonzero coordinates of x0 under the nonzero pattern of A."""
    pattern, reach = liou != 0.0, x0 != 0.0
    while True:
        grown = reach | pattern[:, reach].any(axis=1)
        if np.array_equal(grown, reach):
            return np.flatnonzero(reach)
        reach = grown


def _undriven_maps(gen: np.ndarray, dim: int, dt: float, keep: np.ndarray,
                   sample_idx: np.ndarray) -> Iterator[tuple[np.ndarray, float]]:
    """Yield the power of the one step map of the generator ``gen`` spanning each
    sample gap, restricted to the rows and columns ``keep``, with its trace-row
    defect; the checks read the full map."""
    n = dim * dim
    _warn_if_coarse(_generator_scale(gen, n, dt))
    step_map = _rk4_step_maps(gen, gen, gen, dt)
    defect = _trace_row_defects(step_map, dim, 0, dt)
    radius = float(np.max(np.abs(np.linalg.eigvals(step_map[0, :n, :n]))))
    if radius > _SPECTRAL_RADIUS_LIMIT:
        raise StabilityError(f"step map spectral radius {radius:.10g} > 1 at dt={dt!r}")
    sector = step_map[0][np.ix_(keep, keep)]
    del gen, step_map
    powers = {gap: np.linalg.matrix_power(sector, gap)
              for gap in set(np.diff(sample_idx).tolist())}
    del sector  # the run holds only the powers of the sector
    for start, end in itertools.pairwise(sample_idx):
        yield powers[end - start], defect


def sample_grid(t_end: float, dt: float, n_samples: int) -> tuple[np.ndarray, float]:
    """Step indices of n_samples uniform samples over ceil(t_end / dt) steps, at
    least 1, and the step that divides t_end; ``ValueError`` names a bad value."""
    for name, value in (("dt", dt), ("t_end", t_end)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    if not isinstance(n_samples, (int, np.integer)) or n_samples < 2:
        raise ValueError(f"n_samples must be an integer >= 2, got {n_samples!r}")
    steps = t_end / dt  # a count beyond int64 is 0 here, below every n_samples - 1
    n_steps = max(1, math.ceil(steps - 1e-12)) if steps < 2.0 ** 63 else 0
    if n_steps < n_samples - 1:
        raise ValueError(f"t_end / dt = {steps:.6g} steps must fit in int64 and"
                         f" be at least n_samples - 1 = {n_samples - 1}")
    sample_idx = np.rint(np.linspace(0, n_steps, n_samples)).astype(int)
    if np.any(np.diff(sample_idx) == 0):
        raise ValueError("sample grid collapsed; reduce n_samples")
    return sample_idx, t_end / n_steps


@dataclass(eq=False)
class Propagation:
    """A run over the sample grid ``times``, propagated SAMPLE_BLOCK samples at a
    time as it is iterated, once: each item is the block's ``Trajectory`` and the
    (k, d, d) complex stack of its states, yielded when the block has passed its
    norm and positivity checks, before the next block is propagated.

    The loop only multiplies: y_i = segment @ y_{i-1}, stored unnormalized. The
    state at sample i is then y_i / T_i with T_i = Tr y_i, its Frobenius norm
    before the renormalization at that sample is |y_i| / T_{i-1}, and its Q and
    W increments are those of y divided by T_{i-1} (T_{-1} = 1), which is the
    per-sample renormalization in exact arithmetic. A block hands the next only
    the carry: ``last``, the last sample's unnormalized [x, Q, W], its ``trace``
    and the ``running`` Q and W, prepended to the next block's cumulative sum so
    that the blocks add in the order of one sum over the run.
    """

    dim: int
    times: np.ndarray
    support: np.ndarray
    dt: float
    n_steps: int
    maps: Iterator[tuple[np.ndarray, float]]  # each gap's segment, the largest defect so far
    last: np.ndarray
    trace: float = 1.0
    running: np.ndarray = field(default_factory=lambda: np.array([-0.0, -0.0]))  # -0.0 adds exactly
    max_defect: float = 0.0

    def __iter__(self) -> Iterator[tuple[Trajectory, np.ndarray]]:
        # map holds no block between two reads, so the next is propagated without it
        return map(self._block, range(0, len(self.times), SAMPLE_BLOCK))

    def _block(self, start: int) -> tuple[Trajectory, np.ndarray]:
        d, r, times = self.dim, len(self.support), self.times[start:start + SAMPLE_BLOCK]
        y = np.empty((len(times), r + 2))
        # Floating-point errors are silent here: ``_trace_row_defects`` refuses a
        # non-finite step map before any eigvals, and the norm check below a state
        # that overflows.
        with np.errstate(all="ignore"):
            y[0] = previous = self.last  # sample 0 is the initial state; later blocks overwrite it
            for row, (segment, self.max_defect) in zip(y[0 if start else 1:], self.maps):
                previous = np.matmul(segment, previous, out=row)
            coords = y[:, :r]
            traces = coords[:, self.support % (d + 1) == 0].sum(axis=1)  # T_i, from the diagonal
            before = np.concatenate([[self.trace], traces[:-1]])  # T_{i-1}
            # A unit-trace positive state has Frobenius norm <= 1; large growth means
            # the step size is unstable even when the trace happens to be preserved.
            frob = np.sqrt(np.einsum("ij,ij->i", coords, coords)) / before
            bad = np.flatnonzero(~(frob <= 10.0))
            if bad.size:
                raise StabilityError(f"state norm {frob[bad[0]]:.3e} at t={times[bad[0]].item()!r}")
            increments = np.diff(y[:, r:], axis=0, prepend=self.last[None, r:]).T / before
            heat, work = np.cumsum(np.column_stack([self.running, increments]), axis=1)[:, 1:]
            self.last, self.trace = y[-1].copy(), traces[-1]
            self.running = np.array([heat[-1], work[-1]])
            drifts = np.abs(traces / before - 1.0)
            coords /= traces[:, None]

        spectra = np.empty((len(y), d))
        traj = Trajectory(times=times, coordinates=coords, support=self.support, heat=heat,
                          work=work, spectra=spectra, trace_drifts=drifts,
                          max_step_trace_drift=self.max_defect, dt=self.dt, n_steps=self.n_steps)
        states = traj.states()
        spectra[:] = linalg.eigvalsh(states)
        bad = np.flatnonzero(spectra[:, 0] < -qstate.POSITIVITY_ATOL)
        if bad.size:
            raise PositivityError(f"min eigenvalue {spectra[bad[0], 0]:.3e}"
                                  f" at t={times[bad[0]].item()!r}")
        return traj, states


def propagation(
    model: LindbladModel,
    rho0: np.ndarray,
    t_end: float,
    dt: float,
    n_samples: int,
) -> Propagation:
    """The run of ``propagate``, one block of samples at a time (``Propagation``).

    The arguments are checked here, as ``propagate`` documents; a step-map, norm
    or positivity error is raised while the failing sample's block is propagated.
    """
    sample_idx, dt_eff = sample_grid(t_end, dt, n_samples)
    d, n = model.dim, model.dim ** 2
    rho0 = linalg.as_operator(rho0)
    if rho0.shape != (d, d):
        raise DimensionMismatch(f"initial state shape {rho0.shape} != dim {d}")
    qstate.require_state(rho0)
    x0 = hermitian_coordinates(rho0)
    with np.errstate(all="ignore"):  # see Propagation._block
        if model.driven:  # its generator's pattern may change with time
            support, maps = np.arange(n), _driven_maps(model, dt_eff, sample_idx)
        else:
            gen = augmented_generators(model, np.zeros(1))
            support = _reachable(gen[0, :n, :n], x0)
            maps = _undriven_maps(gen, d, dt_eff, np.append(support, [n, n + 1]), sample_idx)
    return Propagation(d, sample_idx * dt_eff, support, dt_eff, int(sample_idx[-1]), maps,
                       np.append(x0[support], [0.0, 0.0]))


def propagate(
    model: LindbladModel,
    rho0: np.ndarray,
    t_end: float,
    dt: float,
    n_samples: int,
) -> Trajectory:
    """RK4 propagation over [0, t_end] retaining n_samples uniform samples.

    ``rho0`` is a (d, d) density matrix, checked by ``qstate.require_state``
    before any step. The samples and the step, dt shrunk to divide t_end
    exactly, are ``sample_grid``'s, whose ``ValueError`` names a bad argument.
    Warns when dt times the generator scale reaches 0.1 anywhere on the run.
    Raises ``StabilityError`` when a step map changes the trace of a unit-norm
    state by more than 1e-6, an undriven step map has spectral radius above
    1 + 1e-9 or a sampled state has Frobenius norm above 10, and
    ``PositivityError`` at the first sample whose spectrum dips below
    -``qstate.POSITIVITY_ATOL``. Both checks run on a block of samples at a time
    (see ``Propagation``), the norm check first; an unstable run overflows
    quietly until its block is checked.

    An undriven run propagates only the coordinates its start can reach (see the
    module docstring), which the trajectory's ``support`` names; a driven run
    propagates all d^2. The trajectory is the ``join`` of the run's blocks.
    """
    run = propagation(model, rho0, t_end, dt, n_samples)
    return join(run.times, map(operator.itemgetter(0), run))  # no block is held past its copy

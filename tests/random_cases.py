"""Random Hamiltonians, states, degeneracy patterns and Lindblad models for
the hypothesis tests. A test's strategy draws the sizes and an integer seed;
the matrices come from a numpy generator seeded with it."""

import math

import hypothesis.strategies as hst
import numpy as np

from landauer_bounds import linalg
from landauer_bounds.lindblad import JumpChannel, LindbladModel, augmented_generators


def quiet_step(model, t_end):
    """The largest step dividing t_end with dt times the largest Liouvillian
    norm on [0, t_end] at most 0.08, below the coarse-step warning."""
    n = model.dim ** 2
    liou = augmented_generators(model, np.linspace(0.0, t_end, 21))[:, :n, :n]
    return t_end / math.ceil(np.sqrt(np.max(np.einsum("tij,tij->t", liou, liou))) * t_end / 0.08)


def random_hamiltonian(rng, sizes):
    """U diag(levels) U^dagger with ascending, well separated levels repeated by ``sizes``."""
    dim = sum(sizes)
    distinct = -1.0 + np.cumsum(rng.uniform(0.1, 0.5, size=len(sizes)))
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    u = np.linalg.qr(a)[0]
    return linalg.hermitian_part((u * np.repeat(distinct, sizes)) @ u.conj().T)


def random_state_of_rank(rng, dim, rank):
    a = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = a @ a.conj().T
    return linalg.hermitian_part(m / np.trace(m).real)


@hst.composite
def degeneracy_patterns(draw, dim):
    """Cluster sizes (a composition of dim) of the ascending levels."""
    cuts = sorted(draw(hst.sets(hst.integers(1, dim - 1))))
    return np.diff([0, *cuts, dim]).tolist()


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
        model = LindbladModel(dim=dim, hamiltonian_protocol=lambda t: h,
                              channels=tuple(map(JumpChannel.constant, rates, jumps)))
        return model, rho / np.trace(rho).real
    re, im = rng.normal(size=(2, 1 + n_jumps, dim, dim))
    b, *jumps1 = re + 1j * im
    h1, omega = (b + b.conj().T) / 2, rng.uniform(0.5, 3.0)

    def wave(fn, a0, a1, scale=1.0):  # a0 + scale fn(omega t) a1, for a time or an array of times
        return lambda t: a0 + scale * fn(omega * np.asarray(t, dtype=float))[..., None, None] * a1

    model = LindbladModel(
        dim=dim, hamiltonian_protocol=wave(np.sin, h, h1),
        hamiltonian_rate_protocol=wave(np.cos, 0.0, h1, omega),
        channels=tuple(JumpChannel(rate, wave(np.cos, l0, l1))
                       for rate, l0, l1 in zip(rates, jumps, jumps1)))
    return model, rho / np.trace(rho).real


@hst.composite
def random_davies_models(draw, driven=False):
    """A Davies generator, a random state and the generator's beta
    (Kossakowski, Frigerio, Gorini & Verri, CMP 57, 97, 1977).

    H has d <= 4 generic levels E_n with eigenvectors |n>. Each ordered pair
    m != n has the jump |m><n| at rate g_mn exp(-beta (E_m - E_n) / 2), g
    symmetric, so the rates of n -> m and m -> n have the ratio
    exp(-beta (E_m - E_n)): detailed balance at the drawn beta, which makes
    the Gibbs state at beta the stationary state.

    Driven models rotate H slowly: H(t) = U(t) H U(t)^dagger with U(t) =
    exp(-iKt) for a random Hermitian K, the analytic dH/dt = -i[K, H(t)], and
    the jumps U(t)|m><n|U(t)^dagger between the instantaneous eigenvectors at
    the same rates. The levels do not move, so the rates keep detailed balance
    and the Gibbs state of H(t) at beta is stationary under the jumps at t.
    """
    dim = draw(hst.sampled_from([2, 3, 4]))
    rng = np.random.default_rng(draw(hst.integers(0, 2 ** 32 - 1)))
    h = random_hamiltonian(rng, [1] * dim)
    levels, vectors = np.linalg.eigh(h)
    beta = rng.uniform(0.2, 3.0)
    g = rng.uniform(0.1, 1.0, (dim, dim))
    jumps = [((g[m, n] + g[n, m]) * math.exp(-beta * (levels[m] - levels[n]) / 2),
              np.outer(vectors[:, m], vectors[:, n].conj()))
             for m in range(dim) for n in range(dim) if m != n]
    rho0 = random_state_of_rank(rng, dim, int(rng.integers(1, dim + 1)))
    if not driven:
        model = LindbladModel(dim=dim, hamiltonian_protocol=lambda t: h,
                              channels=tuple(JumpChannel.constant(rate, op) for rate, op in jumps))
        return model, rho0, beta
    k = 0.3 * random_hamiltonian(rng, [1] * dim)
    k_levels, k_vectors = np.linalg.eigh(k)

    def rotated(a):  # t -> U(t) a U(t)^dagger, for a time or an array of times
        def protocol(t):
            phases = np.exp(-1j * np.multiply.outer(np.asarray(t, dtype=float), k_levels))
            u = (k_vectors * phases[..., None, :]) @ k_vectors.conj().T
            return u @ a @ linalg.adjoint(u)
        return protocol

    hamiltonian = rotated(h)
    model = LindbladModel(
        dim=dim, hamiltonian_protocol=hamiltonian,
        hamiltonian_rate_protocol=lambda t: -1j * (k @ hamiltonian(t) - hamiltonian(t) @ k),
        channels=tuple(JumpChannel(rate, rotated(op)) for rate, op in jumps))
    return model, rho0, beta


@hst.composite
def block_diagonal_lindbladians(draw):
    """An undriven model that never couples its blocks of levels, a block-diagonal
    start and the coordinates that start can reach.

    Hypothesis draws d <= 6, the block of each level (so a block need not be
    contiguous), the blocks the start touches and a seed. Inside each block the
    Hamiltonian is a chain: random levels, and random couplings between
    consecutive levels of the block in a random order. Each block has one or two
    jumps |i><j| between random levels of it, at random rates. The start puts a
    random weight on one level of each touched block. The chain connects every
    x_ij with i and j in one touched block to that level, through as many
    couplings as the chain is long, and nothing else: coherences between blocks
    and the levels of untouched blocks stay zero.
    """
    dim = draw(hst.integers(2, 6))
    labels = np.array(draw(hst.lists(hst.integers(0, dim - 1), min_size=dim, max_size=dim)))
    blocks = sorted(set(labels.tolist()))
    touched = draw(hst.sets(hst.sampled_from(blocks), min_size=1))
    rng = np.random.default_rng(draw(hst.integers(0, 2 ** 32 - 1)))
    h = np.diag(rng.normal(size=dim)).astype(complex)
    channels = []
    for block in blocks:
        chain = rng.permutation(np.flatnonzero(labels == block))
        for i, j in zip(chain[:-1], chain[1:]):
            h[i, j] = rng.normal() + 1j * rng.normal()
            h[j, i] = h[i, j].conjugate()
        for _ in range(int(rng.integers(1, 3))):
            jump = np.zeros((dim, dim), dtype=complex)
            jump[rng.choice(chain), rng.choice(chain)] = 1.0
            channels.append(JumpChannel.constant(rng.uniform(0.05, 2.0), jump))
    weights = np.zeros(dim)
    for block in touched:
        weights[rng.choice(np.flatnonzero(labels == block))] = rng.uniform(0.1, 1.0)
    model = LindbladModel(dim=dim, hamiltonian_protocol=lambda t: h, channels=tuple(channels))
    reach = (labels[:, None] == labels[None, :]) & np.isin(labels, sorted(touched))[:, None]
    return model, np.diag(weights / weights.sum()).astype(complex), np.flatnonzero(reach)

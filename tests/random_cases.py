"""Random Hamiltonians, states, degeneracy patterns and Lindblad models for
the hypothesis tests. A test's strategy draws the sizes and an integer seed;
the matrices come from a numpy generator seeded with it."""

import hypothesis.strategies as hst
import numpy as np

from landauer_bounds import linalg
from landauer_bounds.lindblad import JumpChannel, LindbladModel


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

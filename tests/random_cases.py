"""Random Hamiltonians, states and degeneracy patterns for the hypothesis
tests. A test's strategy draws the sizes and an integer seed; the matrices come
from a numpy generator seeded with it."""

import hypothesis.strategies as hst
import numpy as np

from landauer_bounds import linalg


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

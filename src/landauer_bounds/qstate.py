"""Quantum-state functionals on plain arrays: entropies, coherence, Gibbs states.

A state is a (d, d) complex array and energy levels are the ascending
eigenvalues that ``linalg.eigh`` returns. Entropy, relative entropy, block
dephasing and Gibbs weights are each written once and also take (..., d, d)
stacks of states and (..., d) stacks of levels. ``require_state`` is the one
check of a state that comes from outside the pipeline. ``state_functionals``
takes the spectra of the states, which propagation computes anyway, and
decomposes no state itself; only the degenerate clusters of a dephased state
need their own (smaller) decomposition.

Convention notes:
  * natural log everywhere; 0 ln 0 = 0;
  * eigenvalues of a state in [-1e-9, 0) are clamped to zero before entropy
    evaluation and the distribution is renormalized if the trace deviates by
    less than 1e-9 (integrator round-off); larger violations raise
    ``InvalidState``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import InvalidState, UnnormalizedVector

TRACE_ATOL = 1e-9
POSITIVITY_ATOL = 1e-9
# A reference state with a weight at or below this makes D(rho || sigma) +inf.
SINGULAR_WEIGHT = 1e-12

# Hamiltonian eigenvalues closer than this count as one degenerate level for
# the dephasing map (see state_functionals) and for the inverted initial state.
DEGENERACY_ATOL = 1e-9


class ThermoSample(NamedTuple):
    """State functionals at a stack of samples: one (m,) array per field, the
    (m, d) populations <E_n|rho|E_n> in the energy eigenbasis and the (m, d)
    ascending energy levels E_n of H(t) at each sample."""

    E_S: np.ndarray
    S: np.ndarray
    S_diag: np.ndarray
    Coh: np.ndarray
    populations: np.ndarray
    levels: np.ndarray


def require_state(rho: np.ndarray) -> np.ndarray:
    """Validate a (d, d) density matrix: Hermitian (``NonHermitianInput``), unit
    trace within TRACE_ATOL and no eigenvalue below -POSITIVITY_ATOL
    (``InvalidState``). Returns it as a complex128 array."""
    a = linalg.require_hermitian(rho)
    tr = float(np.trace(a).real)
    if abs(tr - 1.0) > TRACE_ATOL:
        raise InvalidState(f"trace {tr!r} deviates from 1 beyond {TRACE_ATOL:.1e}")
    wmin = float(np.linalg.eigvalsh(a)[0])
    if wmin < -POSITIVITY_ATOL:
        raise InvalidState(f"negative eigenvalue {wmin:.3e} beyond tolerance")
    return a


def _unit_vector(psi: np.ndarray) -> np.ndarray:
    v = np.asarray(psi, dtype=np.complex128).reshape(-1)
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > 1e-10:
        raise UnnormalizedVector(f"vector norm |psi| = {nrm!r} is not 1")
    return v


def pure_state(psi: np.ndarray) -> np.ndarray:
    """|psi><psi| of a normalized vector; ``UnnormalizedVector`` otherwise."""
    v = _unit_vector(psi)
    return np.outer(v, v.conj())


def _clamped_probabilities(w: np.ndarray) -> np.ndarray:
    """Clamp tiny negatives to zero and renormalize each row within tolerance."""
    w = np.asarray(w, dtype=np.float64)
    if float(w.min(initial=0.0)) < -POSITIVITY_ATOL:
        raise InvalidState(f"negative probability {w.min():.3e} beyond tolerance")
    p = np.clip(w, 0.0, 1.0)
    s = p.sum(axis=-1, keepdims=True)
    off = np.abs(s - 1.0) > TRACE_ATOL
    if np.any(off):
        raise InvalidState(f"probabilities sum to {float(s[off][0])!r}")
    return p / s


def shannon_entropy(p: np.ndarray) -> np.ndarray:
    """-sum_n p_n ln p_n over the last axis, with 0 ln 0 = 0."""
    return -np.sum(p * np.log(np.where(p > 0.0, p, 1.0)), axis=-1)


def von_neumann_entropy(rho: np.ndarray) -> np.ndarray:
    """S = -Tr[rho ln rho] in nats of each state in a (..., d, d) stack."""
    return shannon_entropy(_clamped_probabilities(np.linalg.eigvalsh(rho)))


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """D(rho || sigma) = Tr[rho ln rho] - Tr[rho ln sigma] over broadcast stacks.

    Each sigma is decomposed here, independently of rho, because the two
    generally do not commute. Where sigma has an eigenvalue <= SINGULAR_WEIGHT
    the divergence is +inf and the entry is NaN.
    """
    w, v = np.linalg.eigh(sigma)
    singular = w[..., 0] <= SINGULAR_WEIGHT
    log_w = np.log(np.where(singular[..., None], 1.0, w))
    populations = np.diagonal(linalg.adjoint(v) @ rho @ v, axis1=-2, axis2=-1).real
    return np.where(singular, np.nan,
                    -von_neumann_entropy(rho) - np.sum(log_w * populations, axis=-1))


def level_clusters(levels: np.ndarray) -> np.ndarray:
    """Index of the degenerate level that each of the ascending levels (..., d)
    belongs to: neighbours closer than DEGENERACY_ATOL max(1, max |E|) share one."""
    scale = np.maximum(1.0, np.max(np.abs(levels), axis=-1, keepdims=True))
    breaks = np.diff(levels, axis=-1) > DEGENERACY_ATOL * scale
    return np.cumsum(np.insert(breaks, 0, False, axis=-1), axis=-1)


def has_degenerate_spectrum(levels: np.ndarray) -> np.ndarray:
    """True for each row of ascending levels (..., d) with a gap below the degeneracy tolerance."""
    levels = np.asarray(levels)
    return level_clusters(levels)[..., -1] < levels.shape[-1] - 1


def _dephased_entropies(rotated: np.ndarray, populations: np.ndarray,
                        levels: np.ndarray) -> np.ndarray:
    """Entropy S' of each block-dephased state, from rho in the energy basis.

    Coherences between different degenerate clusters are zeroed; what is left
    is block diagonal, and its spectrum is that of the dephased state.
    Coherences inside a degenerate level are kept, so S' does not depend on
    the basis an eigensolver picks there. Levels ascend, so each cluster is a
    contiguous index range: its part of the spectrum is the population of a
    single level, or the eigenvalues of the cluster's sub-block of rho. The
    samples are grouped by cluster pattern, one ``eigvalsh`` call per
    degenerate cluster of each pattern; a nondegenerate spectrum needs none.
    """
    cluster = level_clusters(levels)
    spectra = populations.copy()
    todo = cluster[:, -1] < cluster.shape[-1] - 1  # samples with a degenerate level
    while todo.any():
        pattern = cluster[int(np.argmax(todo))]
        rows = todo & np.all(cluster == pattern, axis=-1)
        todo &= ~rows
        edges = [0, *(np.flatnonzero(np.diff(pattern)) + 1).tolist(), len(pattern)]
        for a, b in zip(edges, edges[1:]):
            if b - a > 1:
                spectra[rows, a:b] = np.linalg.eigvalsh(rotated[rows, a:b, a:b])
    return shannon_entropy(_clamped_probabilities(spectra))


def gibbs_weights(levels: np.ndarray, beta: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
    """Populations e^{-beta E_n}/Z and ln Z from ascending levels (..., d) at beta (...).

    Energies are shifted by the extremal level before exponentiation so the
    weights never overflow; the shift is compensated in ln Z. When
    |beta| * spread exceeds 700 the weights of non-extremal levels underflow
    to zero.
    """
    beta = np.asarray(beta, dtype=np.float64)[..., None]
    shift = np.where(beta >= 0.0, levels[..., :1], levels[..., -1:])
    weights = np.exp(-beta * (levels - shift))
    z = weights.sum(axis=-1, keepdims=True)
    return weights / z, (np.log(z) - beta * shift)[..., 0]


def diagonal_in_basis(weights: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """V diag(weights) V^dagger, Hermitized, for one basis or a stack of them."""
    return linalg.hermitian_part((vectors * weights[..., None, :]) @ linalg.adjoint(vectors))


def gibbs_state(h: np.ndarray, beta: float) -> np.ndarray:
    """Gibbs state e^{-beta H}/Z for any finite beta (either sign), built from
    ``gibbs_weights`` in the eigenbasis of h."""
    if not math.isfinite(beta):
        raise ValueError("beta must be finite")
    w, v = linalg.eigh(h)
    return diagonal_in_basis(gibbs_weights(w, beta)[0], v)


def fidelity_pure(rho: np.ndarray, psi: np.ndarray) -> float:
    """<psi|rho|psi> for a (d, d) density matrix and a normalized vector psi."""
    v = _unit_vector(psi)
    return float(np.real(v.conj() @ rho @ v))


def state_functionals(rho: np.ndarray, spectra: np.ndarray, levels: np.ndarray,
                      vectors: np.ndarray) -> ThermoSample:
    """E_S, S, S', Coh and the energy-basis populations of a stack of states.

    ``rho`` and ``vectors`` are (m, d, d) stacks; ``spectra`` is (m, d), row i
    holding the ascending eigenvalues of rho[i], and ``levels`` is (m, d),
    row i holding the ascending eigenvalues of H(t_i) with eigenvectors in
    the columns of vectors[i]. S comes from the spectra, clamped and checked
    as in ``von_neumann_entropy``, so no state is decomposed again here. E_S
    uses the basis energies: Tr[H rho] = sum_n lambda_n <E_n|rho|E_n>.
    """
    rotated = linalg.adjoint(vectors) @ rho @ vectors
    populations = np.diagonal(rotated, axis1=-2, axis2=-1).real.copy()
    e_s = np.sum(levels * populations, axis=-1)
    s = shannon_entropy(_clamped_probabilities(spectra))
    s_diag = _dephased_entropies(rotated, populations, levels)
    return ThermoSample(E_S=e_s, S=s, S_diag=s_diag, Coh=s_diag - s,
                        populations=populations, levels=levels)

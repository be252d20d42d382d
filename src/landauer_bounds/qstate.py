"""Quantum-state functionals: entropies, coherence, Gibbs states, fidelity.

Entropy, block dephasing, Gibbs weights and relative entropy are each written
once, for (..., d, d) stacks of states and (..., d) stacks of energy levels;
the single-state functions run the same code on one state.

Convention notes:
  * natural log everywhere; 0 ln 0 = 0;
  * eigenvalues of a state in [-1e-9, 0) are clamped to zero before entropy
    evaluation and the distribution is renormalized if the trace deviates by
    less than 1e-9 (integrator round-off); larger violations raise
    ``InvalidState``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import InvalidState, SingularReference, UnnormalizedVector
from .linalg import EigenSystem

TRACE_ATOL = 1e-9
POSITIVITY_ATOL = 1e-9

# Hamiltonian eigenvalues closer than this count as one degenerate level for
# the dephasing map (see dephase_and_coherence).
DEGENERACY_ATOL = 1e-9


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Unit-trace, positive-semidefinite Hermitian state."""

    matrix: np.ndarray
    dim: int

    @classmethod
    def from_matrix(cls, m: np.ndarray, check: bool = True) -> "DensityMatrix":
        a = linalg.as_operator(m).copy()
        if check:
            a = linalg.require_hermitian(a)
            tr = float(np.trace(a).real)
            if abs(tr - 1.0) > TRACE_ATOL:
                raise InvalidState(f"trace {tr!r} deviates from 1 beyond {TRACE_ATOL:.1e}")
            wmin = float(np.linalg.eigvalsh(a)[0])
            if wmin < -POSITIVITY_ATOL:
                raise InvalidState(f"negative eigenvalue {wmin:.3e} beyond tolerance")
        a.setflags(write=False)
        return cls(matrix=a, dim=a.shape[0])

    @classmethod
    def pure(cls, psi: np.ndarray) -> "DensityMatrix":
        v = _unit_vector(psi)
        return cls.from_matrix(np.outer(v, v.conj()), check=False)


@dataclass(frozen=True, eq=False)
class ReferenceState:
    """Gibbs reference e^{-beta_R H}/Z with its bookkeeping scalars.

    ``free_energy`` is -T_R ln Z; it is -inf at beta_R = 0 where T_R diverges.
    ``saturated`` marks |beta_R| * spectral spread > 700, where the state is
    numerically a projector onto the extremal energy subspace.
    """

    beta_R: float
    gibbs: DensityMatrix
    log_Z: float
    free_energy: float
    saturated: bool = False


class ThermoSample(NamedTuple):
    """State functionals at a stack of samples, one (m,) array per field."""

    t: np.ndarray
    E_S: np.ndarray
    S: np.ndarray
    S_diag: np.ndarray
    Coh: np.ndarray


def _unit_vector(psi: np.ndarray) -> np.ndarray:
    v = np.asarray(psi, dtype=np.complex128).reshape(-1)
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > 1e-10:
        raise UnnormalizedVector(f"vector norm |psi| = {nrm!r} is not 1")
    return v


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


def _entropies(matrices: np.ndarray) -> np.ndarray:
    """von Neumann entropy of each state in a (..., d, d) stack."""
    return shannon_entropy(_clamped_probabilities(np.linalg.eigvalsh(matrices)))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S = -Tr[rho ln rho] in nats."""
    return float(_entropies(rho.matrix))


def relative_entropies(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """D(rho || sigma) = Tr[rho ln rho] - Tr[rho ln sigma] over broadcast stacks.

    Each sigma is decomposed here, independently of rho, because the two
    generally do not commute. Where sigma has an eigenvalue <= 1e-12 the
    divergence is +inf and the entry is NaN.
    """
    w, v = np.linalg.eigh(sigma)
    singular = w[..., 0] <= 1e-12
    log_w = np.log(np.where(singular[..., None], 1.0, w))
    populations = np.diagonal(linalg.adjoint(v) @ rho @ v, axis1=-2, axis2=-1).real
    return np.where(singular, np.nan, -_entropies(rho) - np.sum(log_w * populations, axis=-1))


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """D(rho || sigma) of two states; ``SingularReference`` when sigma is not full rank."""
    if rho.dim != sigma.dim:
        raise InvalidState(f"dimension mismatch {rho.dim} vs {sigma.dim}")
    d = float(relative_entropies(rho.matrix, sigma.matrix))
    if math.isnan(d):
        sig_min = float(np.linalg.eigvalsh(sigma.matrix)[0])
        raise SingularReference(f"reference min eigenvalue {sig_min:.3e} <= 1e-12")
    return d


def _cluster_breaks(levels: np.ndarray) -> np.ndarray:
    """True between consecutive ascending levels that lie in different clusters."""
    scale = np.maximum(1.0, np.max(np.abs(levels), axis=-1, keepdims=True))
    return np.diff(levels, axis=-1) > DEGENERACY_ATOL * scale


def has_degenerate_spectrum(levels: np.ndarray) -> np.ndarray:
    """True for each row of ascending levels (..., d) with a gap below the degeneracy tolerance."""
    return ~np.all(_cluster_breaks(np.asarray(levels)), axis=-1)


def _dephased_entropies(rotated: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Entropy S' of each block-dephased state, from rho in the energy basis.

    Coherences between different degenerate clusters are zeroed; what is left
    is block diagonal, and its spectrum is that of the dephased state.
    """
    breaks = _cluster_breaks(levels)
    cluster = np.cumsum(np.insert(breaks, 0, False, axis=-1), axis=-1)
    same = cluster[..., :, None] == cluster[..., None, :]
    return _entropies(np.where(same, rotated, 0.0))


def dephase_and_coherence(rho: DensityMatrix, basis: EigenSystem) -> tuple[float, float]:
    """Diagonal entropy S' and coherence Coh = S' - S in an energy eigenbasis.

    For a nondegenerate spectrum, S' is the Shannon entropy of the
    populations <E_n|rho|E_n>. Degenerate levels (gaps below 1e-9) are
    dephased as whole spectral blocks, i.e. coherences *within* a degenerate
    eigenspace are kept. This keeps S' independent of the arbitrary basis
    choice inside degenerate clusters, so the value is well-defined for any
    eigensolver output; it coincides with the population form whenever the
    spectrum is nondegenerate.
    """
    v = basis.eigenvectors
    s_diag = float(_dephased_entropies(linalg.adjoint(v) @ rho.matrix @ v, basis.eigenvalues))
    return s_diag, s_diag - von_neumann_entropy(rho)


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


def gibbs_state(h: np.ndarray, beta: float) -> ReferenceState:
    """Gibbs reference state e^{-beta H}/Z for any finite beta (either sign).

    Built from ``gibbs_weights`` in the eigenbasis of h; the result is flagged
    ``saturated`` when |beta| * spread exceeds 700.
    """
    if not math.isfinite(beta):
        raise ValueError("beta must be finite")
    basis = linalg.eigh(h)
    w = basis.eigenvalues
    p, log_z = gibbs_weights(w, beta)
    log_z = float(log_z)
    return ReferenceState(
        beta_R=float(beta),
        gibbs=DensityMatrix.from_matrix(diagonal_in_basis(p, basis.eigenvectors), check=False),
        log_Z=log_z,
        free_energy=-log_z / beta if beta != 0.0 else -math.inf,
        saturated=abs(beta) * float(w[-1] - w[0]) > 700.0,
    )


def fidelity_pure(rho: DensityMatrix | np.ndarray, psi: np.ndarray) -> float:
    """<psi|rho|psi> for a state (or a (d, d) density matrix) and a normalized vector psi."""
    v = _unit_vector(psi)
    r = rho.matrix if isinstance(rho, DensityMatrix) else rho
    return float(np.real(v.conj() @ r @ v))


def state_functionals(t: np.ndarray, rho: np.ndarray, levels: np.ndarray,
                      vectors: np.ndarray) -> ThermoSample:
    """E_S, S, S' and Coh of a stack of states in the energy eigenbases of H(t).

    ``rho`` and ``vectors`` are (m, d, d) stacks and ``levels`` is (m, d),
    row i holding the ascending eigenvalues of H(t_i) with eigenvectors in
    the columns of vectors[i]. E_S uses the basis energies:
    Tr[H rho] = sum_n lambda_n <E_n|rho|E_n>.
    """
    rotated = linalg.adjoint(vectors) @ rho @ vectors
    e_s = np.sum(levels * np.diagonal(rotated, axis1=-2, axis2=-1).real, axis=-1)
    s = _entropies(rho)
    s_diag = _dephased_entropies(rotated, levels)
    return ThermoSample(t=t, E_S=e_s, S=s, S_diag=s_diag, Coh=s_diag - s)

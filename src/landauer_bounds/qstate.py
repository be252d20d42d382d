"""Quantum-state functionals: entropies, coherence, Gibbs states, fidelity.

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

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


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


@dataclass(frozen=True)
class ThermoSample:
    """Per-time bundle of state functionals (energies, entropies, coherence)."""

    t: float
    E_S: float
    S: float
    S_diag: float
    Coh: float
    D_ref: float | None = None
    F_neq: float | None = None


def _unit_vector(psi: np.ndarray) -> np.ndarray:
    v = np.asarray(psi, dtype=np.complex128).reshape(-1)
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > 1e-10:
        raise UnnormalizedVector(f"vector norm |psi| = {nrm!r} is not 1")
    return v


def _clamped_probabilities(w: np.ndarray) -> np.ndarray:
    """Clamp tiny negatives to zero and renormalize within tolerance."""
    w = np.asarray(w, dtype=np.float64)
    if float(w.min(initial=0.0)) < -POSITIVITY_ATOL:
        raise InvalidState(f"negative probability {w.min():.3e} beyond tolerance")
    p = np.clip(w, 0.0, 1.0)
    s = float(p.sum())
    if abs(s - 1.0) > TRACE_ATOL:
        raise InvalidState(f"probabilities sum to {s!r}")
    return p / s


def _shannon(p: np.ndarray) -> float:
    nz = p[p > 0.0]
    return float(-(nz @ np.log(nz)))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S = -Tr[rho ln rho] in nats."""
    return _shannon(_clamped_probabilities(rho.eigenvalues()))


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """D(rho || sigma) = Tr[rho ln rho] - Tr[rho ln sigma].

    The two terms use independent spectral decompositions because rho and
    sigma generally do not commute. ``sigma`` must be full rank; otherwise
    the divergence is +inf and ``SingularReference`` is raised.
    """
    if rho.dim != sigma.dim:
        raise InvalidState(f"dimension mismatch {rho.dim} vs {sigma.dim}")
    sig_min = float(np.linalg.eigvalsh(sigma.matrix)[0])
    if sig_min <= 1e-12:
        raise SingularReference(f"reference min eigenvalue {sig_min:.3e} <= 1e-12")
    log_sigma = linalg.spectral_map(sigma.matrix, np.log)
    tr_rho_log_sigma = linalg.trace_product(rho.matrix, log_sigma).real
    return -von_neumann_entropy(rho) - tr_rho_log_sigma


def _degenerate_clusters(eigenvalues: np.ndarray) -> list[slice]:
    scale = max(1.0, float(np.max(np.abs(eigenvalues))))
    tol = DEGENERACY_ATOL * scale
    out: list[slice] = []
    start = 0
    n = len(eigenvalues)
    for end in range(1, n + 1):
        if end == n or eigenvalues[end] - eigenvalues[end - 1] > tol:
            out.append(slice(start, end))
            start = end
    return out


def has_degenerate_spectrum(eigenvalues: np.ndarray) -> bool:
    """True when some energy gap is below the degeneracy tolerance."""
    return any(s.stop - s.start > 1 for s in _degenerate_clusters(np.asarray(eigenvalues)))


def _dephased_entropy(rotated: np.ndarray, eigenvalues: np.ndarray) -> float:
    """Entropy S' of the block-dephased state, from rho in the energy basis."""
    clusters = _degenerate_clusters(eigenvalues)
    if all(c.stop - c.start == 1 for c in clusters):
        probs = _clamped_probabilities(np.diag(rotated).real)
    else:
        w: list[np.ndarray] = []
        for c in clusters:
            block = linalg.hermitian_part(rotated[c, c])
            w.append(np.linalg.eigvalsh(block))
        probs = _clamped_probabilities(np.concatenate(w))
    return _shannon(probs)


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
    s_diag = _dephased_entropy(v.conj().T @ rho.matrix @ v, basis.eigenvalues)
    return s_diag, s_diag - von_neumann_entropy(rho)


def gibbs_state(h: np.ndarray, beta: float) -> ReferenceState:
    """Gibbs reference state e^{-beta H}/Z for any finite beta (either sign)."""
    return gibbs_in_basis(linalg.eigh(h), beta)


def gibbs_in_basis(basis: EigenSystem, beta: float) -> ReferenceState:
    """Gibbs reference state e^{-beta H}/Z from the eigensystem of H.

    Energies are shifted by the extremal eigenvalue before exponentiation so
    the weights never overflow; the shift is compensated in log_Z. When
    |beta| * spread exceeds 700 the weights of non-extremal levels underflow
    to zero and the result is flagged ``saturated``.
    """
    if not math.isfinite(beta):
        raise ValueError("beta must be finite")
    w = basis.eigenvalues
    spread = float(w[-1] - w[0])
    shift = float(w[0] if beta >= 0 else w[-1])
    x = -beta * (w - shift)
    weights = np.exp(x)
    z_shifted = float(weights.sum())
    p = weights / z_shifted
    log_z = math.log(z_shifted) - beta * shift
    v = basis.eigenvectors
    matrix = linalg.hermitian_part((v * p) @ v.conj().T)
    saturated = abs(beta) * spread > 700.0
    free_energy = -log_z / beta if beta != 0.0 else -math.inf
    return ReferenceState(
        beta_R=float(beta),
        gibbs=DensityMatrix.from_matrix(matrix, check=False),
        log_Z=log_z,
        free_energy=free_energy,
        saturated=saturated,
    )


def fidelity_pure(rho: DensityMatrix, psi: np.ndarray) -> float:
    """<psi|rho|psi> for a normalized vector psi."""
    v = _unit_vector(psi)
    return float(np.real(v.conj() @ rho.matrix @ v))


def state_functionals(
    t: float,
    rho: DensityMatrix,
    basis: EigenSystem,
    ref: ReferenceState | None = None,
) -> ThermoSample:
    """Bundle E_S, S, S', Coh (and D_ref, F_neq when a reference is attached).

    E_S uses the basis energies: Tr[H rho] = sum_n lambda_n <E_n|rho|E_n>.
    With a reference at T_R = 1/beta_R, F_neq = F + T_R D(rho||rho_th) and the
    identity E_S = T_R S + F_neq holds to numerical precision.
    """
    v = basis.eigenvectors
    rotated = v.conj().T @ rho.matrix @ v
    e_s = float(basis.eigenvalues @ np.real(np.diag(rotated)))
    s = von_neumann_entropy(rho)
    s_diag = _dephased_entropy(rotated, basis.eigenvalues)
    coh = s_diag - s
    d_ref = None
    f_neq = None
    if ref is not None:
        d_ref = relative_entropy(rho, ref.gibbs)
        if ref.beta_R != 0.0:
            t_r = 1.0 / ref.beta_R
            f_neq = ref.free_energy + t_r * d_ref
    return ThermoSample(t=t, E_S=e_s, S=s, S_diag=s_diag, Coh=coh, D_ref=d_ref, F_neq=f_neq)

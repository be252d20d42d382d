"""Benchmark models: dissipative Bell-state pumping and driven-qubit erasure.

Rydberg pair (9 levels). Two three-level atoms, each with ground states
|0>, |1> and a Rydberg state |r>. Product basis fixed lexicographically:

    |00>, |01>, |0r>, |10>, |11>, |1r>, |r0>, |r1>, |rr>

H = Omega2 (|10><r0| + |01><0r|) + omega (|11>+|00>)(<01|+<10|) + h.c.
with four spontaneous-emission channels at rate gamma/2 each:
L1 = |01><0r|, L2 = |00><0r|, L3 = |10><r0|, L4 = |00><r0|. The singlet
(|00> - |11>)/sqrt(2) is annihilated by H and all channels, so it is the
unique dark state the dissipation pumps into.

Erasure qubit. H(t) = (eps(t)/2)(cos(theta) sigma_z + sin(theta) sigma_x)
with ramps eps(t) = eps0 + (eps_tau - eps0) sin(pi t / 2 tau)^2 and
theta(t) = pi (t/tau - 1), coupled to a thermal bath at inverse temperature
beta through emission/absorption in the instantaneous eigenbasis:
L1 = sqrt(eps (N_B + 1)) |0_t><1_t|, L2 = sqrt(eps N_B) |1_t><0_t| with
N_B = 1/(e^{beta eps} - 1) and both channel rates equal to gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, qstate
from .errors import DarkStateViolation
from .lindblad import JumpChannel, LindbladModel
from .qstate import DensityMatrix

RYDBERG_BASIS = ("00", "01", "0r", "10", "11", "1r", "r0", "r1", "rr")


@dataclass(frozen=True)
class RydbergParams:
    """Couplings in units of the Rabi-frequency unit Omega = 2 pi MHz."""

    omega2: float = 0.02
    omega: float = 0.01
    gamma: float = 0.03

    def __post_init__(self) -> None:
        if min(self.omega2, self.omega, self.gamma) < 0:
            raise ValueError("Rydberg parameters must be non-negative")


@dataclass(frozen=True)
class ErasureParams:
    """Gap ramp endpoints, protocol duration, channel rate, bath temperature."""

    eps0: float = 0.4
    eps_tau: float = 10.0
    tau: float = 10.0
    gamma: float = 0.2
    bath_beta: float = 1.0

    def __post_init__(self) -> None:
        if self.eps0 <= 0 or self.eps_tau <= 0:
            raise ValueError("eps0 and eps_tau must be positive")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")
        if self.bath_beta <= 0:
            raise ValueError("bath_beta must be positive")


def _dyad(i: int, j: int, dim: int = 9) -> np.ndarray:
    m = np.zeros((dim, dim), dtype=np.complex128)
    m[i, j] = 1.0
    return m


def build_rydberg(params: RydbergParams) -> tuple[LindbladModel, np.ndarray]:
    """Undriven 9-level model and its dark state (|00> - |11>)/sqrt(2)."""
    i00, i01, i0r, i10, i11, _, ir0, _, _ = range(9)
    h = params.omega2 * (_dyad(i10, ir0) + _dyad(i01, i0r))
    for bright in (i01, i10):
        h += params.omega * (_dyad(i11, bright) + _dyad(i00, bright))
    h = h + h.conj().T

    jump_pairs = ((i01, i0r), (i00, i0r), (i10, ir0), (i00, ir0))
    channels = tuple(
        JumpChannel.constant(params.gamma / 2.0, _dyad(i, j)) for i, j in jump_pairs
    )

    bell = np.zeros(9, dtype=np.complex128)
    bell[i00] = 1.0 / math.sqrt(2.0)
    bell[i11] = -1.0 / math.sqrt(2.0)

    if float(np.linalg.norm(h @ bell)) > 1e-12:
        raise DarkStateViolation("H does not annihilate the Bell state")
    for ch in channels:
        if float(np.linalg.norm(ch.operator(0.0) @ bell)) > 1e-12:
            raise DarkStateViolation("a jump operator does not annihilate the Bell state")

    h.setflags(write=False)
    bell.setflags(write=False)
    model = LindbladModel(
        dim=9,
        hamiltonian_protocol=lambda t: h,
        channels=channels,
        driven=False,
    )
    return model, bell


def _qubit_operators(m00, m01, m10, m11) -> np.ndarray:
    """2x2 operators with the given entries; array entries give a (..., 2, 2) stack."""
    return np.moveaxis(np.array([[m00, m01], [m10, m11]], dtype=np.complex128),
                       (0, 1), (-2, -1))


def build_erasure(params: ErasureParams) -> LindbladModel:
    """Driven qubit with thermal emission/absorption in the instantaneous basis.

    Every protocol accepts a scalar time or a 1-D array of times.
    """
    eps0, eps_tau, tau = params.eps0, params.eps_tau, params.tau
    gamma, beta = params.gamma, params.bath_beta

    def eps(t):
        return eps0 + (eps_tau - eps0) * np.sin(np.pi * t / (2.0 * tau)) ** 2

    def theta(t):
        return np.pi * (t / tau - 1.0)

    def eps_rate(t):
        return (eps_tau - eps0) * (np.pi / (2.0 * tau)) * np.sin(np.pi * t / tau)

    theta_rate = math.pi / tau

    def hamiltonian(t) -> np.ndarray:
        th = theta(t)
        e = 0.5 * eps(t)
        c, s = e * np.cos(th), e * np.sin(th)
        return _qubit_operators(c, s, s, -c)

    def hamiltonian_rate(t) -> np.ndarray:
        # d/dt of (eps/2)(cos th sz + sin th sx): gap ramp plus axis rotation.
        th = theta(t)
        c, s = np.cos(th), np.sin(th)
        er, tr = 0.5 * eps_rate(t), 0.5 * eps(t) * theta_rate
        zz = er * c - tr * s
        xx = er * s + tr * c
        return _qubit_operators(zz, xx, xx, -zz)

    # Instantaneous eigenbasis in closed form, valid for eps > 0: excited
    # (cos th/2, sin th/2) at +eps/2, ground (-sin th/2, cos th/2) at -eps/2.
    # The dissipator does not depend on the phase of either dyad.
    def ground_excited(t) -> np.ndarray:
        c, s = np.cos(0.5 * theta(t)), np.sin(0.5 * theta(t))
        return _qubit_operators(-s * c, -s * s, c * c, c * s)

    def n_bath(t):
        return 1.0 / np.expm1(beta * eps(t))

    def emission(t) -> np.ndarray:
        return np.sqrt(eps(t) * (n_bath(t) + 1.0))[..., None, None] * ground_excited(t)

    def absorption(t) -> np.ndarray:
        excited_ground = np.swapaxes(ground_excited(t), -1, -2)
        return np.sqrt(eps(t) * n_bath(t))[..., None, None] * excited_ground

    return LindbladModel(
        dim=2,
        hamiltonian_protocol=hamiltonian,
        channels=(JumpChannel(gamma, emission), JumpChannel(gamma, absorption)),
        driven=True,
        hamiltonian_rate_protocol=hamiltonian_rate,
        protocol_timescale=tau,
    )


def initial_state(
    kind: str,
    h0: np.ndarray | None = None,
    *,
    beta: float | None = None,
    vector: np.ndarray | None = None,
    dim: int | None = None,
) -> DensityMatrix:
    """Construct a benchmark initial state.

    kinds:
      ``gibbs``                    Gibbs state of h0 at the given beta.
      ``sorted_ascending_diagonal``  diagonal in the ascending-energy eigenbasis
                                   of h0, populations = Gibbs populations of h0
                                   re-sorted ascending (population inversion;
                                   same spectrum, hence same entropy, as the
                                   Gibbs state).
      ``maximally_mixed``          I/d (d from h0 or ``dim``).
      ``pure``                     projector onto ``vector``.
    """
    if kind == "gibbs":
        if h0 is None or beta is None:
            raise ValueError("gibbs initial state needs h0 and beta")
        return qstate.gibbs_state(h0, beta).gibbs
    if kind == "sorted_ascending_diagonal":
        if h0 is None or beta is None:
            raise ValueError("sorted_ascending_diagonal needs h0 and beta")
        es = linalg.eigh(h0)
        p, _ = qstate.gibbs_weights(es.eigenvalues, beta)
        return DensityMatrix.from_matrix(qstate.diagonal_in_basis(np.sort(p), es.eigenvectors),
                                         check=False)
    if kind == "maximally_mixed":
        if dim is None:
            if h0 is None:
                raise ValueError("maximally_mixed needs h0 or dim")
            dim = linalg.as_operator(h0).shape[0]
        return DensityMatrix.from_matrix(np.eye(dim, dtype=np.complex128) / dim,
                                         check=False)
    if kind == "pure":
        if vector is None:
            raise ValueError("pure initial state needs a vector")
        return DensityMatrix.pure(vector)
    raise ValueError(f"unknown initial state kind {kind!r}")

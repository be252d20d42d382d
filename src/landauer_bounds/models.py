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
import weakref
from dataclasses import dataclass

import numpy as np

from . import linalg, qstate
from .errors import DarkStateViolation
from .lindblad import JumpChannel, LindbladModel


def _require_finite(params: object, names: tuple[str, ...], positive: bool) -> None:
    """``ValueError`` naming the first field that is not finite and >= 0 (> 0
    when ``positive``); NaN fails every comparison, so it is refused too."""
    for name in names:
        value = getattr(params, name)
        if not (0 < value < math.inf or (value == 0 and not positive)):
            raise ValueError(f"{name} must be finite and {'>' if positive else '>='} 0,"
                             f" got {value!r}")


@dataclass(frozen=True)
class RydbergParams:
    """Couplings in units of the Rabi-frequency unit Omega = 2 pi MHz."""

    omega2: float = 0.02
    omega: float = 0.01
    gamma: float = 0.03

    def __post_init__(self) -> None:
        _require_finite(self, ("omega2", "omega", "gamma"), positive=False)


@dataclass(frozen=True)
class ErasureParams:
    """Gap ramp endpoints, protocol duration, channel rate, bath temperature."""

    eps0: float = 0.4
    eps_tau: float = 10.0
    tau: float = 10.0
    gamma: float = 0.2
    bath_beta: float = 1.0

    def __post_init__(self) -> None:
        _require_finite(self, ("eps0", "eps_tau", "tau", "bath_beta"), positive=True)
        _require_finite(self, ("gamma",), positive=False)


def _dyad(i: int, j: int) -> np.ndarray:
    """|i><j| on the 9 Rydberg-pair levels."""
    m = np.zeros((9, 9), dtype=np.complex128)
    m[i, j] = 1.0
    return m


def build_rydberg(params: RydbergParams) -> tuple[LindbladModel, np.ndarray]:
    """Undriven 9-level model and its dark state (|00> - |11>)/sqrt(2)."""
    i00, i01, i0r, i10, i11, _, ir0, _, _ = range(9)
    h = params.omega2 * (_dyad(i10, ir0) + _dyad(i01, i0r))
    for bright in (i01, i10):
        h += params.omega * (_dyad(i11, bright) + _dyad(i00, bright))
    h = h + h.conj().T

    jumps = [_dyad(i, j) for i, j in ((i01, i0r), (i00, i0r), (i10, ir0), (i00, ir0))]

    bell = np.zeros(9, dtype=np.complex128)
    bell[i00] = 1.0 / math.sqrt(2.0)
    bell[i11] = -1.0 / math.sqrt(2.0)

    # Relative to the operator's largest entry, as the round-off of op @ bell grows with it.
    for op, name in [(h, "H"), *((jump, "a jump operator") for jump in jumps)]:
        if np.abs(op @ bell).max() > 1e-12 * np.abs(op).max():
            raise DarkStateViolation(f"{name} does not annihilate the Bell state")

    h.setflags(write=False)
    bell.setflags(write=False)
    return LindbladModel(
        dim=9,
        hamiltonian_protocol=lambda t: h,
        channels=tuple(JumpChannel.constant(params.gamma / 2.0, jump) for jump in jumps),
    ), bell


def _qubit_operators(m00, m01, m10, m11) -> np.ndarray:
    """2x2 operators with the given entries; array entries give a (..., 2, 2) stack."""
    return np.moveaxis(np.array([[m00, m01], [m10, m11]], dtype=np.complex128),
                       (0, 1), (-2, -1))


def build_erasure(params: ErasureParams) -> LindbladModel:
    """Driven qubit with thermal emission/absorption in the instantaneous basis.

    Every protocol accepts a scalar time or a 1-D array of times. The propagator
    calls all four on the same stage times, so eps(t), theta(t), the sines and
    cosines of theta and theta/2 and N_B are computed once per times array and
    reused while the times are equal in value to the last ones (without this, a
    run took 4.8 ms longer on the erase benchmark and 4.0 ms on erase-sweep).
    The terms are dropped when the times array they were computed for is freed,
    so a model whose run is over holds none.
    """
    eps0, eps_tau, tau = params.eps0, params.eps_tau, params.tau
    gamma, beta = params.gamma, params.bath_beta
    theta_rate = math.pi / tau
    last: list = [None, None]  # a copy of the last times and their terms

    def release(key: np.ndarray) -> None:
        if last[0] is key:
            last[:] = [None, None]

    def terms(t) -> tuple[np.ndarray, ...]:
        """eps, cos theta, sin theta, cos theta/2, sin theta/2 and N_B at the times t."""
        t = np.asarray(t, dtype=float)
        if last[0] is None or not np.array_equal(last[0], t):
            th = np.pi * (t / tau - 1.0)
            eps = eps0 + (eps_tau - eps0) * np.sin(np.pi * t / (2.0 * tau)) ** 2
            with np.errstate(over="ignore", divide="ignore"):  # N_B = 0 or inf at its limits
                last[:] = [t.copy(), (eps, np.cos(th), np.sin(th), np.cos(0.5 * th),
                                      np.sin(0.5 * th), 1.0 / np.expm1(beta * eps))]
            weakref.finalize(t, release, last[0])
        return last[1]

    def hamiltonian(t) -> np.ndarray:
        eps, cos, sin = terms(t)[:3]
        e = 0.5 * eps
        c, s = e * cos, e * sin
        return _qubit_operators(c, s, s, -c)

    def dh_dt(t) -> np.ndarray:
        # d/dt of (eps/2)(cos th sz + sin th sx): gap ramp plus axis rotation.
        eps, c, s = terms(t)[:3]
        eps_rate = (eps_tau - eps0) * (np.pi / (2.0 * tau)) * np.sin(np.pi * t / tau)
        er, tr = 0.5 * eps_rate, 0.5 * eps * theta_rate
        zz = er * c - tr * s
        xx = er * s + tr * c
        return _qubit_operators(zz, xx, xx, -zz)

    # Instantaneous eigenbasis in closed form, valid for eps > 0: excited
    # (cos th/2, sin th/2) at +eps/2, ground (-sin th/2, cos th/2) at -eps/2.
    # The dissipator does not depend on the phase of either dyad.
    def ground_excited(c: np.ndarray, s: np.ndarray) -> np.ndarray:
        return _qubit_operators(-s * c, -s * s, c * c, c * s)

    def emission(t) -> np.ndarray:
        eps, _, _, c, s, n_bath = terms(t)
        return np.sqrt(eps * (n_bath + 1.0))[..., None, None] * ground_excited(c, s)

    def absorption(t) -> np.ndarray:
        eps, _, _, c, s, n_bath = terms(t)
        excited_ground = np.swapaxes(ground_excited(c, s), -1, -2)
        return np.sqrt(eps * n_bath)[..., None, None] * excited_ground

    return LindbladModel(
        dim=2,
        hamiltonian_protocol=hamiltonian,
        channels=(JumpChannel(gamma, emission), JumpChannel(gamma, absorption)),
        hamiltonian_rate_protocol=dh_dt,
    )


def initial_state(
    kind: str,
    h0: np.ndarray | None = None,
    *,
    beta: float | None = None,
    vector: np.ndarray | None = None,
) -> np.ndarray:
    """Construct a benchmark initial state as a (d, d) density matrix.

    kinds:
      ``gibbs``                    Gibbs state of h0 at the given beta.
      ``sorted_ascending_diagonal``  diagonal in an ascending-energy eigenbasis
                                   of h0, populations = Gibbs populations of h0
                                   re-sorted ascending (population inversion;
                                   same spectrum, hence same entropy, as the
                                   Gibbs state). ``ValueError`` when the sorted
                                   populations of one degenerate level of h0
                                   differ by more than TRACE_ATOL: that state
                                   would depend on the basis chosen there.
      ``maximally_mixed``          I/d, d from h0.
      ``pure``                     projector onto ``vector``.
    """
    if kind in ("gibbs", "sorted_ascending_diagonal") and (
            h0 is None or beta is None or not math.isfinite(beta)):
        raise ValueError(f"{kind} initial state needs h0 and a finite beta, got beta={beta!r}")
    if kind == "gibbs":
        return qstate.gibbs_state(h0, beta)
    if kind == "sorted_ascending_diagonal":
        w, v = linalg.eigh(h0)
        p = np.sort(qstate.gibbs_weights(w, beta)[0])
        cluster = qstate.level_clusters(w)
        spread = np.abs(p[:, None] - p[None, :])[cluster[:, None] == cluster[None, :]]
        if spread.max() > qstate.TRACE_ATOL:
            raise ValueError(f"sorted populations differ by {spread.max():.3g} inside a"
                             " degenerate level of H(0), so the inverted state depends on"
                             " the eigenbasis chosen there")
        return qstate.diagonal_in_basis(p, v)
    if kind == "maximally_mixed":
        if h0 is None:
            raise ValueError("maximally_mixed needs h0")
        dim = linalg.as_operator(h0).shape[0]
        return np.eye(dim, dtype=np.complex128) / dim
    if kind == "pure":
        if vector is None:
            raise ValueError("pure initial state needs a vector")
        return qstate.pure_state(vector)
    raise ValueError(f"unknown initial state kind {kind!r}")

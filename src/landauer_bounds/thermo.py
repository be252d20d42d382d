"""Per-sample evaluation of the entropy-energy inequalities.

One bound chain serves both model kinds. With the reference Gibbs state
rho_th(t) at beta_R(t) = 1/T_R(t) from entropy matching and the correction
C(t) = (beta_R(t) - beta_R(0)) E_S(t) + ln Z(t)/Z(0):

    gap    = beta_R(0) dE_R~ - dS + C = D(rho(t) || rho_th(t)) >= 0
    Q_u~   = dE_in~ + T_R(0) (C - dS),   dE_in~ = dE_R~(0)
    lp <= Q <= Q_u~ + W               (lp = -T dS needs a genuine bath at T)

Driven models match beta_R(t) at every sample. Undriven ones keep the match
of t = 0, so C = 0, W = 0 and Q = E_S(0) - E_S(t): the paper's undriven bound
Q <= Q_u = dE_in - T_R dS. When beta_R(0) < 0 the upper bound flips into the
lower bound Q >= Q_u~ + W, and every sample is flagged ``direction_flipped``.
T_R(0) (C - dS) is taken with 0 * inf = 0, so at beta_R(0) = 0, where C - dS
is the gap, Q_u~ is +inf (vacuous) wherever the gap is open.

The entropy change dS is always recomputed from sampled states, never
accumulated, so integrator error cannot leak into an inequality check.

``evaluate_samples`` makes the one pass over a block of samples: it
diagonalizes H(t) at all samples of a driven model in one stacked call (H(0)
once per block for an undriven one, broadcast to every sample without a copy)
and evaluates E_S, S, S', Coh and the energy-basis populations on stacks of
states. S comes from the spectra that ``propagate`` computed for its
positivity check, so each sampled state is decomposed once. The reference
solves, the bound chain and the NLP comparison read these arrays. rho_th(t)
is diagonal in the energy basis of H(t), so the instantaneous relative
entropy needs no further decomposition:

    D(rho || rho_th) = -S - sum_n ln p_n <E_n|rho|E_n>,

with p_n the Gibbs weights at beta_R(t). Gibbs weights at beta_R(t) and at the
bath beta, relative entropies and every bound column are array expressions
over the samples, returned as one table of columns. Differences from t = 0
are taken from the run's ``Origin`` (by default row 0), so a run can be
bounded one block of samples at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np

from . import linalg, qstate
from .errors import DrivenModelSupplied, MisalignedSeries, NoBathTemperature
from .lindblad import LindbladModel, Trajectory, protocol_values
from .qstate import ThermoSample
from .refsolve import BetaSolveResult


def evaluate_samples(traj: Trajectory, model: LindbladModel,
                     states: np.ndarray | None = None) -> ThermoSample:
    """Diagonalize H(t) and evaluate E_S, S, S', Coh at every sample.

    ``states`` is the complex stack of the samples' density matrices, when the
    caller has it (``lindblad.Propagation`` yields it with each block); without
    it ``traj.states()`` forms it here. An undriven model shares the one
    eigensystem of H(0) across samples, and its ``levels`` are that one row
    broadcast to every sample.
    """
    m, d = len(traj.times), model.dim
    times = traj.times if model.driven else np.zeros(1)
    levels, vectors = linalg.eigh(protocol_values(model.hamiltonian_protocol, times, d,
                                                  "Hamiltonian"))
    states = traj.states() if states is None else states
    return qstate.state_functionals(states, traj.spectra, np.broadcast_to(levels, (m, d)),
                                    np.broadcast_to(vectors, (m, d, d)))


class Origin(NamedTuple):
    """Sample 0 of a run, which the bounds at every sample are taken from: its
    state functionals, one row each, and its beta_R solve."""

    sample: ThermoSample
    reference: BetaSolveResult

    @classmethod
    def of(cls, samples: ThermoSample, reference: BetaSolveResult) -> "Origin":
        """The origin of a run whose sample 0 is row 0 of ``samples``."""
        return cls(ThermoSample(*(np.array(field[:1]) for field in samples)), reference)


# Columns left undefined (NaN) by design at some samples; a NaN in any other
# column is a computed value.
OPTIONAL_COLUMNS = frozenset({"D_direct", "lp_lower", "gap", "gap_P", "D_inst"})

# The undriven bounds.csv names of Bounds columns.
_ALIASES = {"dE_R": "dE_R_tilde", "gap_P": "gap", "D_direct": "D_inst", "Q_u": "Qu_tilde"}


class _Table:
    """One column per field: ``len(table)`` counts samples, ``table[name]`` is a
    column, also under its undriven bounds.csv name (``gap_P`` for ``gap``)."""

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, name: str) -> Any:
        return getattr(self, _ALIASES.get(name, name))


@dataclass(frozen=True, eq=False)
class Bounds(_Table):
    """The bound chain: an (m,) float array per field, NaN where undefined.

    ``flags`` holds each sample's status, decided once by the chain and counted
    by meta.json: ``beta_solve_failed``, else ``saturated`` (the solve hit its
    search cap, or |beta_R| times the level spread exceeds 700, where the
    reference's Gibbs weights underflow), else ``identity_suppressed`` (the
    reference is singular), as one shared tuple of names per distinct set. A
    failed or saturated sample leaves ``gap`` and ``D_inst`` undefined, an
    identity-suppressed one ``D_inst``, and a failed one ``beta_R_t`` and the
    bounds built from it; ``lp_lower`` needs a bath.
    """

    t: np.ndarray
    E_S: np.ndarray
    S: np.ndarray
    S_diag: np.ndarray
    Coh: np.ndarray
    Q: np.ndarray
    W: np.ndarray
    beta_R_t: np.ndarray
    C_t: np.ndarray
    dE_R_tilde: np.ndarray
    gap: np.ndarray
    D_inst: np.ndarray
    Qu_tilde: np.ndarray
    upper: np.ndarray
    lp_lower: np.ndarray
    dS: np.ndarray
    dS_diag: np.ndarray
    dCoh: np.ndarray
    flags: list[tuple[str, ...]]


@dataclass(frozen=True, eq=False)
class NlpComparison(_Table):
    """Slacks of the thermal-bath comparison inequalities (all >= 0).

    An (m,) float array per field; ``slack_S25`` is NaN for undriven models.
    """

    t: np.ndarray
    slack_S23: np.ndarray
    slack_S25: np.ndarray


def _scaled_product(t_r: float, x: np.ndarray) -> np.ndarray:
    """T_R * x with the 0 * inf = 0 convention (divergent reference, no change)."""
    return np.multiply(t_r, x, out=np.zeros_like(x), where=x != 0.0)


# The last flag of a sample: none, or why its gap identity is not checked.
_IDENTITY_FLAGS = ((), ("beta_solve_failed",), ("saturated",), ("identity_suppressed",))


def _chain(traj: Trajectory, v: ThermoSample, beta_series: list[BetaSolveResult],
           heat: np.ndarray, work: np.ndarray, bath_T: float | None, origin: Origin) -> Bounds:
    """The bound chain at every sample, with each sample's status (see ``Bounds``),
    from one beta_R solve per sample or one that holds at all of them (a fixed
    reference), measured from the run's ``origin``. The gap identity pair needs
    beta_R(t), which a saturated reference makes numerically a projector; the
    bounds only need beta_R(0) and C(t).

    D_inst = -S - sum_n ln p_n <E_n|rho|E_n> from the Gibbs weights p at beta_R(t) and the
    populations of ``v``; NaN where the reference is singular (``qstate.SINGULAR_WEIGHT``).
    """
    levels, m, n, v0 = v.levels, len(traj.times), len(beta_series), origin.sample
    beta_t, _, capped, errors = zip(*beta_series)
    beta_t, failed, beta_r0 = np.array(beta_t), np.not_equal(errors, None), origin.reference.beta_R
    t_r0 = 1.0 / beta_r0 if beta_r0 != 0.0 else math.inf

    p_t, log_z_t = qstate.gibbs_weights(levels[:n], np.where(failed, 0.0, beta_t))
    p_0, log_z_0 = qstate.gibbs_weights(v0.levels, beta_r0)
    saturated = ~failed & (np.array(capped)
                           | (np.abs(beta_t) * (levels[:n, -1] - levels[:n, 0]) > 700.0))
    e_th0 = float(p_0[0] @ v0.levels[0])
    ds = v.S - v0.S[0]
    de_r = v.E_S - e_th0
    c_t = (beta_t - beta_r0) * v.E_S + (log_z_t - log_z_0[0])
    qu = (v0.E_S[0] - e_th0) + _scaled_product(t_r0, c_t - ds)

    no_identity = failed | saturated
    log_p = np.log(p_t, out=np.zeros_like(p_t), where=p_t > 0.0)
    d_inst = np.where(p_t.min(axis=-1) <= qstate.SINGULAR_WEIGHT, np.nan,
                      -v.S - np.sum(log_p * v.populations, axis=-1))
    keys = (4 * np.broadcast_to(qstate.has_degenerate_spectrum(levels[:n]), (m,))
            + np.select([failed, saturated, np.isnan(d_inst)], [1, 2, 3], 0)).tolist()
    flipped = ("direction_flipped",) if beta_r0 < 0.0 else ()
    shared = {k: ("degenerate_spectrum",) * (k >= 4) + flipped + _IDENTITY_FLAGS[k % 4]
              for k in set(keys)}
    return Bounds(
        traj.times, v.E_S, v.S, v.S_diag, v.Coh, heat, work, np.broadcast_to(beta_t, (m,)),
        c_t, de_r, np.where(no_identity, np.nan, beta_r0 * de_r - ds + c_t),
        np.where(no_identity, np.nan, d_inst), qu, qu + work,
        np.full(m, np.nan) if bath_T is None else -bath_T * ds, ds,
        v.S_diag - v0.S_diag[0], v.Coh - v0.Coh[0], [shared[k] for k in keys],
    )


def undriven_bounds(
    traj: Trajectory,
    model: LindbladModel,
    samples: ThermoSample,
    reference: BetaSolveResult,
    bath_T: float | None = None,
    origin: Origin | None = None,
) -> Bounds:
    """The bound chain of an undriven model, with the reference fixed at t = 0.

    ``samples`` comes from ``evaluate_samples(traj, model)`` and ``reference``
    is the entropy match of the initial state. The heat is Q = E_S(0) - E_S(t), W = 0.
    ``origin`` is the run's sample 0, by default row 0 of ``samples`` with ``reference``.
    """
    if model.driven:
        raise DrivenModelSupplied("undriven_bounds requires an undriven model")
    origin = Origin.of(samples, reference) if origin is None else origin
    return _chain(traj, samples, [reference], -(samples.E_S - origin.sample.E_S[0]),
                  np.zeros(len(traj.times)), bath_T, origin)


def driven_bounds(
    traj: Trajectory,
    model: LindbladModel,
    samples: ThermoSample,
    beta_series: list[BetaSolveResult],
    bath_T: float | None = None,
    origin: Origin | None = None,
) -> Bounds:
    """The bound chain with beta_R(t) matched at every sample.

    ``samples`` comes from ``evaluate_samples(traj, model)``; ``beta_series``
    must align with traj.times. ``origin`` is the run's sample 0, by default
    row 0 of ``samples`` with the first solve; its solve must be finite and
    non-saturated, since beta_R(0) enters every sample.
    """
    if len(beta_series) != len(traj.times):
        raise MisalignedSeries(
            f"{len(beta_series)} reference solves for {len(traj.times)} samples"
        )
    origin = Origin.of(samples, beta_series[0]) if origin is None else origin
    b0 = origin.reference
    if b0.error is not None or b0.saturated or not math.isfinite(b0.beta_R):
        raise MisalignedSeries("initial reference parameter must be finite and non-saturated")
    return _chain(traj, samples, beta_series, traj.heat, traj.work, bath_T, origin)


def nlp_comparison(
    traj: Trajectory,
    model: LindbladModel,
    samples: ThermoSample,
    bath_beta: float | None,
    origin: Origin | None = None,
) -> NlpComparison:
    """Slacks of the comparison bounds built from the instantaneous thermal state.

    ``samples`` comes from ``evaluate_samples(traj, model)``. Requires a
    genuine thermal bath: ``bath_beta`` is configuration metadata,
    never inferred from jump operators. Both slacks are one expression,
    beta E_S - S + ln Z(t) = D(rho(t) || rho_eq(t)) >= 0, written from the
    thermal state at t and at 0, the run's ``origin`` (by default row 0 of
    ``samples``); on fig2 they differ by at most 1.8e-15.
    """
    if bath_beta is None or not math.isfinite(bath_beta) or bath_beta <= 0:
        raise NoBathTemperature("nlp_comparison needs a positive bath inverse temperature")
    v = samples
    p_eq, log_z_eq = qstate.gibbs_weights(v.levels, bath_beta)
    e_eq = np.sum(p_eq * v.levels, axis=-1)
    s_eq = qstate.shannon_entropy(p_eq)
    slack_s25 = np.full(len(traj.times), np.nan)
    if model.driven:
        levels0 = (v if origin is None else origin.sample).levels[:1]
        p_0, log_z_0 = qstate.gibbs_weights(levels0, bath_beta)
        e_0, s_0 = np.sum(p_0 * levels0, axis=-1)[0], qstate.shannon_entropy(p_0)[0]
        slack_s25 = bath_beta * (v.E_S - e_0) - (v.S - s_0) + (log_z_eq - log_z_0[0])
    return NlpComparison(traj.times, bath_beta * (v.E_S - e_eq) - (v.S - s_eq), slack_s25)

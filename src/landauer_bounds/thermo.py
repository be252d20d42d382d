"""Per-sample evaluation of the entropy-energy inequalities.

Undriven chain, with a reference Gibbs state rho_th fixed by entropy matching
at t = 0 (beta_R = 1/T_R):

    gap_P  = beta_R dE_R - dS = D(rho(t) || rho_th) >= 0
    Q_u    = dE_in - T_R dS               (upper bound on Q = -dE_S)
    lp     = -T dS <= Q                   (needs a genuine bath at T)

Driven chain, with instantaneous matching beta_R(t) and correction
C(t) = (beta_R(t) - beta_R(0)) E_S(t) + ln Z(t)/Z(0):

    gap    = beta_R(0) dE_R~ - dS + C = D(rho(t) || rho_th(t)) >= 0
    Q_u~   = dE_in~ - T_R(0) dS + T_R(0) C
    lp <= Q <= Q_u~ + W

The entropy change dS is always recomputed from sampled states, never
accumulated, so integrator error cannot leak into an inequality check.

``evaluate_samples`` makes the one pass over the samples: it diagonalizes
H(t) at all samples of a driven model in one stacked call (once per run for an
undriven one, broadcast to every sample without a copy) and evaluates E_S, S,
S' and Coh on stacks of states. The reference solves, both bound chains and
the NLP comparison read these arrays. Gibbs weights at beta_R(t) and at the
bath beta, relative entropies and every bound column are array expressions
over the samples, and each chain returns them as one table of columns. Stacks
of density matrices are formed SAMPLE_BLOCK samples at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import numpy as np

from . import linalg, qstate
from .errors import DrivenModelSupplied, MisalignedSeries, NoBathTemperature
from .lindblad import LindbladModel, Trajectory, protocol_values
from .qstate import ReferenceState, ThermoSample
from .refsolve import BetaSolveResult

# Stacks of density matrices (states, Gibbs references and their rotations),
# the positivity check of the propagated states and the text of the CSV
# outputs are formed this many samples at a time: enough to batch the work,
# few enough that the stacks of a long run never sit in memory at once.
SAMPLE_BLOCK = 256


class Samples(NamedTuple):
    """Levels (m, d) and eigenvectors (m, d, d) of H(t) and state functionals at every sample."""

    levels: np.ndarray
    vectors: np.ndarray
    values: ThermoSample


def sample_blocks(n: int) -> list[slice]:
    """Slices of SAMPLE_BLOCK consecutive samples covering n samples."""
    return [slice(i, i + SAMPLE_BLOCK) for i in range(0, n, SAMPLE_BLOCK)]


def evaluate_samples(traj: Trajectory, model: LindbladModel) -> Samples:
    """Diagonalize H(t) and evaluate E_S, S, S', Coh at every sample.

    An undriven model shares one eigensystem, computed once, across samples.
    """
    m, d = len(traj.times), model.dim
    times = traj.times if model.driven else traj.times[:1]
    h = protocol_values(model.hamiltonian_protocol, times, d, "Hamiltonian")
    levels, vectors = np.linalg.eigh(linalg.require_hermitian(h))
    levels, vectors = np.broadcast_to(levels, (m, d)), np.broadcast_to(vectors, (m, d, d))
    parts = [qstate.state_functionals(traj.times[b], traj.states[b], levels[b], vectors[b])
             for b in sample_blocks(m)]
    return Samples(levels, vectors, ThermoSample(*map(np.concatenate, zip(*parts))))


def _relative_entropies(traj: Trajectory,
                        sigma: Callable[[slice], np.ndarray]) -> np.ndarray:
    """D(rho(t) || sigma(t)) at every sample, NaN where sigma(t) is singular.

    ``sigma(block)`` gives the references of a block of samples, or one
    reference for all of them.
    """
    return np.concatenate([qstate.relative_entropies(traj.states[b], sigma(b))
                           for b in sample_blocks(len(traj.times))])


# Columns left undefined (NaN) by design at some samples; a NaN in any other
# column is a computed value.
OPTIONAL_COLUMNS = frozenset({"D_direct", "lp_lower", "gap", "D_inst"})


class _Table:
    """One column per field: ``len(table)`` counts samples, ``table[name]`` is a column."""

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, name: str) -> Any:
        return getattr(self, name)


@dataclass(frozen=True, eq=False)
class UndrivenBounds(_Table):
    """The undriven chain: an (m,) float array per field, NaN where undefined.

    ``D_direct`` is undefined where the reference is singular or saturated and
    ``lp_lower`` without a bath; ``flags`` holds a tuple of names per sample.
    """

    t: np.ndarray
    E_S: np.ndarray
    S: np.ndarray
    S_diag: np.ndarray
    Coh: np.ndarray
    dE_R: np.ndarray
    dS: np.ndarray
    gap_P: np.ndarray
    D_direct: np.ndarray
    dE_in: np.ndarray
    Q_u: np.ndarray
    Q: np.ndarray
    lp_lower: np.ndarray
    dS_diag: np.ndarray
    dCoh: np.ndarray
    flags: list[tuple[str, ...]]


@dataclass(frozen=True, eq=False)
class DrivenBounds(_Table):
    """The driven chain: an (m,) float array per field, NaN where undefined.

    ``gap`` and ``D_inst`` are undefined where beta_R(t) failed or saturated,
    ``lp_lower`` without a bath; a failed solve also leaves NaN in ``beta_R_t``
    and the bounds built from it. ``flags`` holds a tuple of names per sample.
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
    dE_in_tilde: np.ndarray
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
    F_neq_T: np.ndarray
    F_eq_t: np.ndarray
    slack_S23: np.ndarray
    slack_S25: np.ndarray


def _scaled_product(t_r: float, ds: np.ndarray) -> np.ndarray:
    """T_R * dS with the 0 * inf convention (divergent reference, no change)."""
    return np.multiply(t_r, ds, out=np.zeros_like(ds), where=ds != 0.0)


def undriven_bounds(
    traj: Trajectory,
    model: LindbladModel,
    samples: Samples,
    ref: ReferenceState,
    bath_T: float | None = None,
) -> UndrivenBounds:
    """Evaluate the undriven chain on every trajectory sample.

    ``samples`` comes from ``evaluate_samples(traj, model)`` and ``ref`` is
    the entropy-matched reference for the initial state. With a
    negative-branch reference the upper bound flips direction; samples are then
    flagged ``direction_flipped`` and Q_u is reported as the flipped lower
    bound, as configured.
    """
    if model.driven:
        raise DrivenModelSupplied("undriven_bounds requires an undriven model")
    h = model.hamiltonian(0.0)
    beta_r = ref.beta_R
    t_r = 1.0 / beta_r if beta_r != 0.0 else math.inf

    e_th = linalg.trace_product(ref.gibbs.matrix, h).real
    base_flags: tuple[str, ...] = ()
    if qstate.has_degenerate_spectrum(samples.levels[0]):
        base_flags += ("degenerate_spectrum",)
    if beta_r < 0.0:
        base_flags += ("direction_flipped",)
    if ref.saturated:
        base_flags += ("reference_saturated",)

    v, m = samples.values, len(traj.times)
    ds = v.S - v.S[0]
    de_r = v.E_S - e_th
    de_in = v.E_S[0] - e_th
    d_direct = (np.full(m, np.nan) if ref.saturated
                else _relative_entropies(traj, lambda block: ref.gibbs.matrix))
    flags = [base_flags + ("identity_suppressed",) if singular else base_flags
             for singular in (np.isnan(d_direct) & (not ref.saturated)).tolist()]
    return UndrivenBounds(
        v.t, v.E_S, v.S, v.S_diag, v.Coh, de_r, ds, beta_r * de_r - ds, d_direct,
        np.full(m, de_in), de_in - _scaled_product(t_r, ds), -(v.E_S - v.E_S[0]),
        np.full(m, np.nan) if bath_T is None else -bath_T * ds,
        v.S_diag - v.S_diag[0], v.Coh - v.Coh[0], flags,
    )


def driven_bounds(
    traj: Trajectory,
    model: LindbladModel,
    samples: Samples,
    beta_series: list[BetaSolveResult],
    bath_T: float | None = None,
) -> DrivenBounds:
    """Evaluate the driven chain on every sample.

    ``samples`` comes from ``evaluate_samples(traj, model)``;
    ``beta_series`` must align with traj.times. Saturated samples keep their
    bound fields (which only need beta_R(0) and the capped beta_R(t) through
    C(t)) but the gap/relative-entropy identity pair is suppressed because
    the capped reference is numerically a projector.
    """
    if len(beta_series) != len(traj.times):
        raise MisalignedSeries(
            f"{len(beta_series)} reference solves for {len(traj.times)} samples"
        )
    b0 = beta_series[0]
    if b0.error is not None or b0.saturated or not math.isfinite(b0.beta_R):
        raise MisalignedSeries("initial reference parameter must be finite and non-saturated")
    beta_r0 = b0.beta_R
    t_r0 = 1.0 / beta_r0 if beta_r0 != 0.0 else math.inf

    v, levels, m = samples.values, samples.levels, len(traj.times)
    failed = np.array([r.error is not None for r in beta_series])
    beta_t = np.array([r.beta_R for r in beta_series])
    p_t, log_z_t = qstate.gibbs_weights(levels, np.where(failed, 0.0, beta_t))
    saturated = ~failed & (np.array([r.saturated for r in beta_series])
                           | (np.abs(beta_t) * (levels[:, -1] - levels[:, 0]) > 700.0))
    e_th0 = float(p_t[0] @ levels[0])
    ds = v.S - v.S[0]
    de_r = v.E_S - e_th0
    de_in = v.E_S[0] - e_th0
    c_t = (beta_t - beta_r0) * v.E_S + (log_z_t - log_z_t[0])
    # T_R(0) = inf at beta_R(0) = 0 makes 0 * inf here; the sample is then NaN.
    with np.errstate(invalid="ignore"):
        qu = de_in - _scaled_product(t_r0, ds) + t_r0 * c_t

    no_identity = failed | saturated
    d_inst = _relative_entropies(
        traj, lambda block: qstate.diagonal_in_basis(p_t[block], samples.vectors[block]))
    flag = np.select([failed, saturated, np.isnan(d_inst)],
                     ["beta_solve_failed", "saturated", "identity_suppressed"], "")
    return DrivenBounds(
        v.t, v.E_S, v.S, v.S_diag, v.Coh, traj.heat, traj.work, beta_t, c_t, de_r,
        np.where(no_identity, np.nan, beta_r0 * de_r - ds + c_t),
        np.where(no_identity, np.nan, d_inst), np.full(m, de_in), qu, qu + traj.work,
        np.full(m, np.nan) if bath_T is None else -bath_T * ds, ds,
        v.S_diag - v.S_diag[0], v.Coh - v.Coh[0], [(f,) if f else () for f in flag.tolist()],
    )


def nlp_comparison(
    traj: Trajectory,
    model: LindbladModel,
    samples: Samples,
    bath_beta: float | None,
) -> NlpComparison:
    """Slacks of the comparison bounds built from the instantaneous thermal state.

    ``samples`` comes from ``evaluate_samples(traj, model)``. Requires a
    genuine thermal bath: ``bath_beta`` is configuration metadata,
    never inferred from jump operators. Each slack equals
    beta (F(t) - F_eq(t)) = D(rho(t) || rho_eq(t)) >= 0 for detailed-balance
    models.
    """
    if bath_beta is None or not math.isfinite(bath_beta) or bath_beta <= 0:
        raise NoBathTemperature("nlp_comparison needs a positive bath inverse temperature")
    temp = 1.0 / bath_beta

    v = samples.values
    p_eq, log_z_eq = qstate.gibbs_weights(samples.levels, bath_beta)
    e_eq = np.sum(p_eq * samples.levels, axis=-1)
    s_eq = qstate.shannon_entropy(p_eq)
    slack_s25 = (bath_beta * (v.E_S - e_eq[0]) - (v.S - s_eq[0]) + (log_z_eq - log_z_eq[0])
                 if model.driven else np.full(len(traj.times), np.nan))
    return NlpComparison(v.t, v.E_S - temp * v.S, -temp * log_z_eq,
                         bath_beta * (v.E_S - e_eq) - (v.S - s_eq), slack_s25)

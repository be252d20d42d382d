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
H(t) at every sample of a driven model (once per run for an undriven one) and
evaluates E_S, S, S' and Coh once per sample. The reference solves, both bound
chains and the NLP comparison all read these values; the Gibbs states at
beta_R(t) and at the bath beta are built in the same eigenbases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from . import linalg, qstate
from .errors import (
    DrivenModelSupplied,
    MisalignedSeries,
    NoBathTemperature,
    SingularReference,
)
from .linalg import EigenSystem
from .lindblad import LindbladModel, Trajectory
from .qstate import ReferenceState, ThermoSample
from .refsolve import BetaSolveResult


class Samples(NamedTuple):
    """Energy eigensystem of H(t) and state functionals at every sample."""

    bases: list[EigenSystem]
    values: list[ThermoSample]


def evaluate_samples(traj: Trajectory, model: LindbladModel) -> Samples:
    """Diagonalize H(t) and evaluate E_S, S, S', Coh once per sample.

    An undriven model shares one eigensystem, computed once, across samples.
    """
    if model.driven:
        bases = [linalg.eigh(model.hamiltonian(float(t))) for t in traj.times]
    else:
        bases = [linalg.eigh(model.hamiltonian(0.0))] * len(traj.times)
    values = [qstate.state_functionals(float(t), rho, basis)
              for t, rho, basis in zip(traj.times, traj.states, bases)]
    return Samples(bases, values)


@dataclass(frozen=True)
class UndrivenBounds:
    """One sample of the undriven bound chain."""

    t: float
    E_S: float
    S: float
    S_diag: float
    Coh: float
    dE_R: float
    dS: float
    gap_P: float
    D_direct: float | None
    dE_in: float
    Q_u: float
    Q: float
    lp_lower: float | None
    dS_diag: float
    dCoh: float
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class DrivenBounds:
    """One sample of the driven bound chain."""

    t: float
    E_S: float
    S: float
    S_diag: float
    Coh: float
    Q: float
    W: float
    beta_R_t: float
    C_t: float
    dE_R_tilde: float
    gap: float | None
    D_inst: float | None
    dE_in_tilde: float
    Qu_tilde: float
    upper: float
    lp_lower: float | None
    dS: float
    dS_diag: float
    dCoh: float
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class NlpComparison:
    """Slacks of the thermal-bath comparison inequalities (all >= 0)."""

    t: float
    F_neq_T: float
    F_eq_t: float
    slack_S23: float
    slack_S25: float | None
    slack_S26: float | None


def _scaled_product(t_r: float, ds: float) -> float:
    """T_R * dS with the 0 * inf convention (divergent reference, no change)."""
    if ds == 0.0:
        return 0.0
    return t_r * ds


def undriven_bounds(
    traj: Trajectory,
    model: LindbladModel,
    samples: Samples,
    ref: ReferenceState,
    bath_T: float | None = None,
) -> list[UndrivenBounds]:
    """Evaluate the undriven chain on every trajectory sample.

    ``samples`` comes from ``evaluate_samples(traj, model)`` and ``ref`` is
    the entropy-matched reference for the initial state. With a
    negative-branch reference the upper bound flips direction; rows are then
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
    if qstate.has_degenerate_spectrum(samples.bases[0].eigenvalues):
        base_flags += ("degenerate_spectrum",)
    if beta_r < 0.0:
        base_flags += ("direction_flipped",)
    if ref.saturated:
        base_flags += ("reference_saturated",)

    first = samples.values[0]
    s0, sdiag0, coh0, e0 = first.S, first.S_diag, first.Coh, first.E_S
    de_in = e0 - e_th

    rows: list[UndrivenBounds] = []
    for sm, rho in zip(samples.values, traj.states):
        ds = sm.S - s0
        de_r = sm.E_S - e_th
        gap_p = beta_r * de_r - ds
        flags = base_flags
        if ref.saturated:
            d_direct = None
        else:
            try:
                d_direct = qstate.relative_entropy(rho, ref.gibbs)
            except SingularReference:
                d_direct = None
                flags = flags + ("identity_suppressed",)
        rows.append(
            UndrivenBounds(
                t=sm.t,
                E_S=sm.E_S,
                S=sm.S,
                S_diag=sm.S_diag,
                Coh=sm.Coh,
                dE_R=de_r,
                dS=ds,
                gap_P=gap_p,
                D_direct=d_direct,
                dE_in=de_in,
                Q_u=de_in - _scaled_product(t_r, ds),
                Q=-(sm.E_S - e0),
                lp_lower=None if bath_T is None else -bath_T * ds,
                dS_diag=sm.S_diag - sdiag0,
                dCoh=sm.Coh - coh0,
                flags=flags,
            )
        )
    return rows


def driven_bounds(
    traj: Trajectory,
    model: LindbladModel,
    samples: Samples,
    beta_series: list[BetaSolveResult],
    bath_T: float | None = None,
) -> list[DrivenBounds]:
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

    h0 = model.hamiltonian(float(traj.times[0]))
    ref0 = qstate.gibbs_in_basis(samples.bases[0], beta_r0)
    e_th0 = linalg.trace_product(ref0.gibbs.matrix, h0).real

    first = samples.values[0]
    s0, sdiag0, coh0, e0 = first.S, first.S_diag, first.Coh, first.E_S
    rows: list[DrivenBounds] = []
    for i, (basis, sm, res) in enumerate(zip(samples.bases, samples.values, beta_series)):
        ds = sm.S - s0
        de_r = sm.E_S - e_th0
        gap = d_inst = None
        flags: tuple[str, ...] = ()
        if res.error is not None:
            beta_t = c_t = qu = math.nan
            flags = ("beta_solve_failed",)
        else:
            beta_t = res.beta_R
            ref_t = qstate.gibbs_in_basis(basis, beta_t)
            c_t = (beta_t - beta_r0) * sm.E_S + (ref_t.log_Z - ref0.log_Z)
            qu = (e0 - e_th0) - _scaled_product(t_r0, ds) + t_r0 * c_t
            if res.saturated or ref_t.saturated:
                flags = ("saturated",)
            else:
                gap = beta_r0 * de_r - ds + c_t
                try:
                    d_inst = qstate.relative_entropy(traj.states[i], ref_t.gibbs)
                except SingularReference:
                    flags = ("identity_suppressed",)
        work = float(traj.work[i])
        rows.append(
            DrivenBounds(
                t=sm.t, E_S=sm.E_S, S=sm.S, S_diag=sm.S_diag, Coh=sm.Coh,
                Q=float(traj.heat[i]), W=work, beta_R_t=beta_t, C_t=c_t,
                dE_R_tilde=de_r, gap=gap, D_inst=d_inst, dE_in_tilde=e0 - e_th0,
                Qu_tilde=qu, upper=qu + work,
                lp_lower=None if bath_T is None else -bath_T * ds,
                dS=ds, dS_diag=sm.S_diag - sdiag0, dCoh=sm.Coh - coh0, flags=flags,
            )
        )
    return rows


def nlp_comparison(
    traj: Trajectory,
    model: LindbladModel,
    samples: Samples,
    bath_beta: float | None,
) -> list[NlpComparison]:
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

    h0 = model.hamiltonian(float(traj.times[0]))
    eq0 = qstate.gibbs_in_basis(samples.bases[0], bath_beta)
    e_eq0 = linalg.trace_product(eq0.gibbs.matrix, h0).real
    s_eq0 = qstate.von_neumann_entropy(eq0.gibbs)

    rows: list[NlpComparison] = []
    for basis, sm in zip(samples.bases, samples.values):
        t = sm.t
        h_t = model.hamiltonian(t) if model.driven else h0
        eq_t = qstate.gibbs_in_basis(basis, bath_beta) if model.driven else eq0
        e_eq = linalg.trace_product(eq_t.gibbs.matrix, h_t).real
        s_eq = qstate.von_neumann_entropy(eq_t.gibbs)

        slack_s23 = bath_beta * (sm.E_S - e_eq) - (sm.S - s_eq)
        slack_s25 = None
        slack_s26 = None
        if model.driven:
            slack_s25 = (
                bath_beta * (sm.E_S - e_eq0)
                - (sm.S - s_eq0)
                + (eq_t.log_Z - eq0.log_Z)
            )
        else:
            slack_s26 = slack_s23
        rows.append(
            NlpComparison(
                t=t,
                F_neq_T=sm.E_S - temp * sm.S,
                F_eq_t=-temp * eq_t.log_Z,
                slack_S23=slack_s23,
                slack_S25=slack_s25,
                slack_S26=slack_s26,
            )
        )
    return rows

import math

import numpy as np
import pytest

from landauer_bounds import linalg, models, qstate, refsolve, thermo
from landauer_bounds.errors import DrivenModelSupplied, MisalignedSeries, NoBathTemperature
from landauer_bounds.lindblad import JumpChannel, LindbladModel, propagate
from landauer_bounds.qstate import DensityMatrix
from landauer_bounds.refsolve import BRANCH_NEGATIVE, BetaSolveResult


def frozen_erasure(params=None):
    """Erasure model with the protocol frozen at t = 0 (undriven)."""
    params = params or models.ErasureParams()
    driven = models.build_erasure(params)
    h0 = driven.hamiltonian(0.0)
    return LindbladModel(
        dim=2,
        hamiltonian_protocol=lambda t: h0,
        channels=tuple(JumpChannel.constant(ch.rate, ch.operator(0.0))
                       for ch in driven.channels),
        driven=False,
    ), params


def solved_reference(h, rho0, branch="non-negative"):
    res = refsolve.solve_beta(linalg.eigh(h), qstate.von_neumann_entropy(rho0), branch)
    return qstate.gibbs_state(h, res.beta_R), res


def test_initial_time_algebra(rydberg):
    model, _ = rydberg
    h = model.hamiltonian(0.0)
    rho0 = models.initial_state("sorted_ascending_diagonal", h, beta=30.0)
    traj = propagate(model, rho0, 1.0, 0.01, 3)
    ref, res = solved_reference(h, rho0)
    rows = thermo.undriven_bounds(traj, model, thermo.evaluate_samples(traj, model), res)
    assert rows.dS[0] == 0.0
    assert rows.dE_R_tilde[0] == pytest.approx(rows.dE_in_tilde[0], abs=1e-14)
    assert rows.gap[0] == pytest.approx(ref.beta_R * rows.dE_in_tilde[0], abs=1e-12)
    assert rows.gap[0] == pytest.approx(rows.D_inst[0], abs=1e-10)
    assert rows.gap[0] >= -1e-9


def test_thermal_start_zero_contrast(rydberg):
    # rho(0) = rho_th makes dE_in = 0 and Q_u = -T_R dS
    model, _ = rydberg
    h = model.hamiltonian(0.0)
    rho0 = models.initial_state("gibbs", h, beta=30.0)
    traj = propagate(model, rho0, 20.0, 0.01, 11)
    ref, res = solved_reference(h, rho0)
    rows = thermo.undriven_bounds(traj, model, thermo.evaluate_samples(traj, model), res)
    assert abs(rows.dE_in_tilde[0]) < 1e-12
    t_r = 1.0 / ref.beta_R
    assert rows.Qu_tilde == pytest.approx(-t_r * rows.dS, abs=1e-12)
    assert np.all(rows.Q <= rows.Qu_tilde + 1e-8)


def test_gap_identity_undriven(rydberg):
    model, _ = rydberg
    h = model.hamiltonian(0.0)
    rho0 = models.initial_state("gibbs", h, beta=30.0)
    traj = propagate(model, rho0, 50.0, 0.01, 26)
    _, res = solved_reference(h, rho0)
    rows = thermo.undriven_bounds(traj, model, thermo.evaluate_samples(traj, model), res)
    assert np.max(np.abs(rows.gap - rows.D_inst)) < 1e-8
    assert np.all(rows.gap >= -1e-8)
    assert all("degenerate_spectrum" in f for f in rows.flags)


def test_coherence_split_is_exact(fig2_result):
    rows = fig2_result.bounds
    assert np.all(np.abs(rows.dS - (rows.dS_diag - rows.dCoh)) < 1e-12)


def test_undriven_bounds_rejects_driven_model(erasure, fig2_result):
    res = fig2_result.beta_results[0]
    samples = thermo.evaluate_samples(fig2_result.trajectory, erasure)
    with pytest.raises(DrivenModelSupplied):
        thermo.undriven_bounds(fig2_result.trajectory, erasure, samples, res)


def test_driven_bounds_misaligned_series(erasure, fig2_result):
    traj = fig2_result.trajectory
    samples = thermo.evaluate_samples(traj, erasure)
    with pytest.raises(MisalignedSeries):
        thermo.driven_bounds(traj, erasure, samples, fig2_result.beta_results[:-1])


def test_bound_ordering_frozen_weak_coupling():
    # Undriven thermal-bath setup with a colder-than-bath thermal start:
    # the relaxation keeps -T dS <= Q <= Q_u strictly ordered.
    model, params = frozen_erasure(models.ErasureParams(gamma=0.05))
    h0 = model.hamiltonian(0.0)
    rho0 = models.initial_state("gibbs", h0, beta=2.0)
    traj = propagate(model, rho0, 30.0, 1e-3, 61)
    _, res = solved_reference(h0, rho0)
    assert res.beta_R == pytest.approx(2.0, abs=1e-8)
    samples = thermo.evaluate_samples(traj, model)
    rows = thermo.undriven_bounds(traj, model, samples, res, bath_T=1.0 / params.bath_beta)
    assert rows.dS[-1] > 1e-3  # heating toward the hotter bath
    assert np.all(rows.lp_lower <= rows.Q + 1e-8)
    assert np.all(rows.Q <= rows.Qu_tilde + 1e-8)


def test_degenerate_saturation_stationary_state():
    model, params = frozen_erasure()
    h0 = model.hamiltonian(0.0)
    rho0 = models.initial_state("gibbs", h0, beta=params.bath_beta)
    traj = propagate(model, rho0, 10.0, 5e-4, 21)
    _, res = solved_reference(h0, rho0)
    samples = thermo.evaluate_samples(traj, model)
    rows = thermo.undriven_bounds(traj, model, samples, res, bath_T=1.0 / params.bath_beta)
    assert np.all(np.abs(rows.Q) < 1e-9)
    assert np.all(np.abs(rows.dS) < 1e-9)
    assert np.all(np.abs(rows.Qu_tilde) < 1e-9)


def test_driven_path_reduces_to_undriven():
    # For a time-independent Hamiltonian the reference parameter is fixed
    # once, at t = 0; feeding that constant series through the driven chain
    # must reproduce the undriven numbers with a vanishing correction term.
    model, params = frozen_erasure()
    h0 = model.hamiltonian(0.0)
    rho0 = models.initial_state("gibbs", h0, beta=2.0)
    traj = propagate(model, rho0, 5.0, 1e-3, 11)
    _, res = solved_reference(h0, rho0)
    samples = thermo.evaluate_samples(traj, model)
    u = thermo.undriven_bounds(traj, model, samples, res, bath_T=1.0)
    series = [res] * len(traj.times)
    d = thermo.driven_bounds(traj, model, samples, series, bath_T=1.0)
    assert np.all(np.abs(d.C_t) < 1e-10)
    assert d.gap == pytest.approx(u.gap, abs=1e-9)
    assert d.D_inst == pytest.approx(u.D_inst, abs=1e-9)
    assert d.Qu_tilde == pytest.approx(u.Qu_tilde, abs=1e-9)
    assert d.upper == pytest.approx(u.Qu_tilde, abs=1e-9)  # W = 0
    assert d.dE_R_tilde == pytest.approx(u.dE_R_tilde, abs=1e-12)
    assert d.lp_lower == pytest.approx(u.lp_lower, abs=1e-12)


def test_instantaneous_matching_identity_holds_for_constant_hamiltonian():
    # Per-time entropy matching on a constant Hamiltonian yields a varying
    # beta_R(t) while the state relaxes; the gap identity still holds since
    # it only requires matching at t = 0.
    model, _ = frozen_erasure()
    h0 = model.hamiltonian(0.0)
    rho0 = models.initial_state("gibbs", h0, beta=2.0)
    traj = propagate(model, rho0, 5.0, 1e-3, 11)
    entropies = [qstate.von_neumann_entropy(DensityMatrix.from_matrix(st)) for st in traj.states]
    levels = np.array([linalg.eigh(h0).eigenvalues] * len(entropies))
    series = refsolve.solve_beta_series(levels, entropies)
    d = thermo.driven_bounds(traj, model, thermo.evaluate_samples(traj, model), series)
    assert d.gap == pytest.approx(d.D_inst, abs=1e-9)
    assert np.all(d.gap >= -1e-9)


def test_negative_branch_flips_bound_direction():
    # Population-inverted start on a symmetric spectrum: beta_R = -1 and the
    # energy-entropy bound constrains Q from below instead of above.
    model, _ = frozen_erasure()
    h0 = model.hamiltonian(0.0)
    rho0 = models.initial_state("sorted_ascending_diagonal", h0, beta=1.0)
    traj = propagate(model, rho0, 10.0, 1e-3, 21)
    _, res = solved_reference(h0, rho0, branch=BRANCH_NEGATIVE)
    assert res.beta_R == pytest.approx(-1.0, abs=1e-8)
    samples = thermo.evaluate_samples(traj, model)
    rows = thermo.undriven_bounds(traj, model, samples, res, bath_T=1.0)
    assert all("direction_flipped" in f for f in rows.flags)
    assert np.all(rows.gap >= -1e-9)  # the gap identity is sign-independent
    assert rows.gap == pytest.approx(rows.D_inst, abs=1e-9)
    assert np.all(rows.Q >= rows.Qu_tilde - 1e-8)  # flipped: lower bound on dissipated heat
    assert rows.Q[-1] > rows.Qu_tilde[-1] + 1e-4  # strict at late times


def test_driven_bounds_marks_saturated_and_failed_samples():
    model, params = frozen_erasure()
    h0 = model.hamiltonian(0.0)
    rho0 = models.initial_state("gibbs", h0, beta=1.0)
    traj = propagate(model, rho0, 1.0, 1e-3, 3)
    good = refsolve.solve_beta(linalg.eigh(h0), qstate.von_neumann_entropy(rho0))
    saturated = BetaSolveResult(2.5e8, 0.0, True, good.branch)
    failed = BetaSolveResult(math.nan, math.nan, False, good.branch, error="no bracket")
    samples = thermo.evaluate_samples(traj, model)
    rows = thermo.driven_bounds(traj, model, samples, [good, saturated, failed])
    assert math.isnan(rows.gap[1]) and math.isnan(rows.D_inst[1])
    assert "saturated" in rows.flags[1]
    assert math.isfinite(rows.Qu_tilde[1])  # bound fields still emitted
    assert "beta_solve_failed" in rows.flags[2]
    assert math.isnan(rows.Qu_tilde[2])
    with pytest.raises(MisalignedSeries):
        thermo.driven_bounds(traj, model, samples, [saturated, good, good])


def test_nlp_requires_bath(fig2_result, rydberg):
    model, _ = rydberg
    samples = thermo.evaluate_samples(fig2_result.trajectory, fig2_result.model)
    with pytest.raises(NoBathTemperature):
        thermo.nlp_comparison(fig2_result.trajectory, fig2_result.model, samples, None)
    with pytest.raises(NoBathTemperature):
        thermo.nlp_comparison(fig2_result.trajectory, model, samples, -1.0)


def test_nlp_equilibrium_samples_have_zero_slack():
    model, params = frozen_erasure()
    h0 = model.hamiltonian(0.0)
    rho0 = models.initial_state("gibbs", h0, beta=params.bath_beta)
    traj = propagate(model, rho0, 5.0, 1e-3, 6)
    samples = thermo.evaluate_samples(traj, model)
    c = thermo.nlp_comparison(traj, model, samples, params.bath_beta)
    assert np.all(np.abs(c.slack_S23) < 1e-12)
    assert np.all(np.isnan(c.slack_S25))
    assert c.F_neq_T == pytest.approx(c.F_eq_t, abs=1e-12)


def test_nlp_driven_slack_matches_relative_entropy(fig2_result):
    c = fig2_result.nlp
    assert c is not None
    bath_beta = 1.0
    for k in range(0, len(c), 40):
        eq = qstate.gibbs_state(fig2_result.model.hamiltonian(c.t[k]), bath_beta)
        d = qstate.relative_entropy(DensityMatrix.from_matrix(fig2_result.trajectory.states[k]),
                                    eq.gibbs)
        assert c.slack_S25[k] == pytest.approx(d, abs=1e-8)
        assert c.slack_S25[k] >= -1e-8

import math

import hypothesis.strategies as hst
import numpy as np
import pytest
from full_width import full_trajectory, states_of
from hypothesis import given, settings
from random_cases import (
    degeneracy_patterns,
    quiet_step,
    random_davies_models,
    random_hamiltonian,
    random_lindbladians,
    random_state_of_rank,
)

from landauer_bounds import cli, linalg, models, qstate, refsolve, thermo
from landauer_bounds.errors import DrivenModelSupplied, MisalignedSeries, NoBathTemperature
from landauer_bounds.lindblad import (
    JumpChannel,
    LindbladModel,
    density_matrices,
    hermitian_coordinates,
    propagate,
)
from landauer_bounds.refsolve import BRANCH_NEGATIVE, BetaSolveResult


def frozen_erasure(params=None):
    """Erasure model with the protocol frozen at t = 0 (undriven)."""
    params = params or models.ErasureParams()
    driven = models.build_erasure(params)
    h0 = driven.hamiltonian_protocol(0.0)
    return LindbladModel(
        dim=2,
        hamiltonian_protocol=lambda t: h0,
        channels=tuple(JumpChannel.constant(ch.rate, ch.operator_protocol(0.0))
                       for ch in driven.channels),
    ), params


def solved_reference(h, rho0, branch="non-negative"):
    return refsolve.solve_beta(np.linalg.eigvalsh(h), qstate.von_neumann_entropy(rho0), branch)


def test_initial_time_algebra(rydberg):
    model, _ = rydberg
    h = model.hamiltonian_protocol(0.0)
    rho0 = models.initial_state("sorted_ascending_diagonal", h, beta=30.0)
    traj = propagate(model, rho0, 1.0, 0.01, 3)
    res = solved_reference(h, rho0)
    rows = thermo.undriven_bounds(traj, model, thermo.evaluate_samples(traj, model), res)
    assert rows.dS[0] == 0.0
    # at t = 0, dS = C = 0, so Q_u = dE_in = dE_R(0) and the gap is beta_R dE_in
    assert rows.Qu_tilde[0] == pytest.approx(rows.dE_R_tilde[0], abs=1e-14)
    assert rows.gap[0] == pytest.approx(res.beta_R * rows.dE_R_tilde[0], abs=1e-12)
    assert rows.gap[0] == pytest.approx(rows.D_inst[0], abs=1e-10)
    assert rows.gap[0] >= -1e-9


def test_thermal_start_zero_contrast(rydberg):
    # rho(0) = rho_th makes dE_in = 0 and Q_u = -T_R dS
    model, _ = rydberg
    h = model.hamiltonian_protocol(0.0)
    rho0 = models.initial_state("gibbs", h, beta=30.0)
    traj = propagate(model, rho0, 20.0, 0.01, 11)
    res = solved_reference(h, rho0)
    rows = thermo.undriven_bounds(traj, model, thermo.evaluate_samples(traj, model), res)
    assert abs(rows.dE_R_tilde[0]) < 1e-12
    t_r = 1.0 / res.beta_R
    assert rows.Qu_tilde == pytest.approx(-t_r * rows.dS, abs=1e-12)
    assert np.all(rows.Q <= rows.Qu_tilde + 1e-8)


def test_gap_identity_undriven(rydberg):
    model, _ = rydberg
    h = model.hamiltonian_protocol(0.0)
    rho0 = models.initial_state("gibbs", h, beta=30.0)
    traj = propagate(model, rho0, 50.0, 0.01, 26)
    res = solved_reference(h, rho0)
    rows = thermo.undriven_bounds(traj, model, thermo.evaluate_samples(traj, model), res)
    assert np.max(np.abs(rows.gap - rows.D_inst)) < 1e-8
    assert np.all(rows.gap >= -1e-8)
    assert all("degenerate_spectrum" in f for f in rows.flags)


def test_coherence_split_is_exact(fig2_result):
    rows = fig2_result.bounds
    assert np.all(np.abs(rows.dS - (rows.dS_diag - rows.dCoh)) < 1e-12)


def test_undriven_bounds_rejects_driven_model(erasure, fig2_result):
    res = fig2_result.config.beta_R0
    samples = thermo.evaluate_samples(fig2_result.trajectory, erasure)
    with pytest.raises(DrivenModelSupplied):
        thermo.undriven_bounds(fig2_result.trajectory, erasure, samples, res)


def test_driven_bounds_misaligned_series(erasure, fig2_result):
    traj = fig2_result.trajectory
    samples = thermo.evaluate_samples(traj, erasure)
    with pytest.raises(MisalignedSeries):
        thermo.driven_bounds(traj, erasure, samples,
                             [fig2_result.config.beta_R0] * (len(traj.times) - 1))


def test_bound_ordering_frozen_weak_coupling():
    # Undriven thermal-bath setup with a colder-than-bath thermal start:
    # the relaxation keeps -T dS <= Q <= Q_u strictly ordered.
    model, params = frozen_erasure(models.ErasureParams(gamma=0.05))
    h0 = model.hamiltonian_protocol(0.0)
    rho0 = models.initial_state("gibbs", h0, beta=2.0)
    traj = propagate(model, rho0, 30.0, 1e-3, 61)
    res = solved_reference(h0, rho0)
    assert res.beta_R == pytest.approx(2.0, abs=1e-8)
    samples = thermo.evaluate_samples(traj, model)
    rows = thermo.undriven_bounds(traj, model, samples, res, bath_T=1.0 / params.bath_beta)
    assert rows.dS[-1] > 1e-3  # heating toward the hotter bath
    assert np.all(rows.lp_lower <= rows.Q + 1e-8)
    assert np.all(rows.Q <= rows.Qu_tilde + 1e-8)


def test_degenerate_saturation_stationary_state():
    model, params = frozen_erasure()
    h0 = model.hamiltonian_protocol(0.0)
    rho0 = models.initial_state("gibbs", h0, beta=params.bath_beta)
    traj = propagate(model, rho0, 10.0, 5e-4, 21)
    res = solved_reference(h0, rho0)
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
    h0 = model.hamiltonian_protocol(0.0)
    rho0 = models.initial_state("gibbs", h0, beta=2.0)
    traj = propagate(model, rho0, 5.0, 1e-3, 11)
    res = solved_reference(h0, rho0)
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
    h0 = model.hamiltonian_protocol(0.0)
    rho0 = models.initial_state("gibbs", h0, beta=2.0)
    traj = propagate(model, rho0, 5.0, 1e-3, 11)
    entropies = qstate.von_neumann_entropy(states_of(traj))
    levels = np.array([np.linalg.eigvalsh(h0)] * len(entropies))
    series = refsolve.solve_beta_series(levels, entropies)
    d = thermo.driven_bounds(traj, model, thermo.evaluate_samples(traj, model), series)
    assert d.gap == pytest.approx(d.D_inst, abs=1e-9)
    assert np.all(d.gap >= -1e-9)


def test_negative_branch_flips_bound_direction():
    # Population-inverted start on a symmetric spectrum: beta_R = -1 and the
    # energy-entropy bound constrains Q from below instead of above.
    model, _ = frozen_erasure()
    h0 = model.hamiltonian_protocol(0.0)
    rho0 = models.initial_state("sorted_ascending_diagonal", h0, beta=1.0)
    traj = propagate(model, rho0, 10.0, 1e-3, 21)
    res = solved_reference(h0, rho0, branch=BRANCH_NEGATIVE)
    assert res.beta_R == pytest.approx(-1.0, abs=1e-8)
    samples = thermo.evaluate_samples(traj, model)
    rows = thermo.undriven_bounds(traj, model, samples, res, bath_T=1.0)
    assert all("direction_flipped" in f for f in rows.flags)
    assert np.all(rows.gap >= -1e-9)  # the gap identity is sign-independent
    assert rows.gap == pytest.approx(rows.D_inst, abs=1e-9)
    assert np.all(rows.Q >= rows.Qu_tilde - 1e-8)  # flipped: lower bound on dissipated heat
    assert rows.Q[-1] > rows.Qu_tilde[-1] + 1e-4  # strict at late times


@pytest.mark.parametrize("start, branch, sign", [
    ({"kind": "gibbs", "beta": 1.0}, "non-negative", 1.0),
    ({"kind": "maximally_mixed"}, "non-negative", 0.0),
    ({"kind": "sorted_ascending_diagonal", "beta": 1.0}, "negative", -1.0),
], ids=["positive", "zero", "negative"])
def test_upper_bound_is_one_expression_at_every_sign_of_the_reference(tmp_path, start, branch,
                                                                       sign):
    # Q_u~ = dE_in~ + T_R(0) (C - dS) against the split formula it replaced,
    # dE_in~ - T_R(0) dS + T_R(0) C for beta_R(0) != 0, within 1e-13 * max(1, |v|)
    raw = cli.scenario_defaults("fig2")
    raw.update(initial_state=start, beta_branch=branch)
    raw["integrator"].update(t_end=2.0, n_samples=21)
    rows = cli.run_pipeline(cli.build_config(raw, "qu", tmp_path, plots=False)).bounds
    beta_r0, de_in = rows.beta_R_t[0], rows.dE_R_tilde[0]
    assert np.sign(beta_r0) == sign
    if beta_r0 == 0.0:  # 0 * inf = 0: +inf wherever the gap C - dS is open
        split = de_in + np.where(rows.C_t - rows.dS > 0.0, math.inf, 0.0)
    else:
        split = de_in - (1.0 / beta_r0) * rows.dS + (1.0 / beta_r0) * rows.C_t
    finite = np.isfinite(split)
    assert finite.sum() == (1 if sign == 0.0 else len(split))
    assert np.array_equal(rows.Qu_tilde[~finite], split[~finite])
    qu, split = rows.Qu_tilde[finite], split[finite]
    scaled = np.abs(qu - split) / np.maximum(1.0, np.abs(split))
    assert np.all(scaled <= 1e-13)


def test_driven_bounds_marks_saturated_and_failed_samples():
    model, params = frozen_erasure()
    h0 = model.hamiltonian_protocol(0.0)
    rho0 = models.initial_state("gibbs", h0, beta=1.0)
    traj = propagate(model, rho0, 1.0, 1e-3, 3)
    good = refsolve.solve_beta(np.linalg.eigvalsh(h0), qstate.von_neumann_entropy(rho0))
    saturated = BetaSolveResult(2.5e8, 0.0, True)
    failed = BetaSolveResult(math.nan, math.nan, False, error="no bracket")
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
    samples = thermo.evaluate_samples(fig2_result.trajectory, fig2_result.config.model)
    with pytest.raises(NoBathTemperature):
        thermo.nlp_comparison(fig2_result.trajectory, fig2_result.config.model, samples, None)
    with pytest.raises(NoBathTemperature):
        thermo.nlp_comparison(fig2_result.trajectory, model, samples, -1.0)


def test_nlp_equilibrium_samples_have_zero_slack():
    model, params = frozen_erasure()
    h0 = model.hamiltonian_protocol(0.0)
    rho0 = models.initial_state("gibbs", h0, beta=params.bath_beta)
    traj = propagate(model, rho0, 5.0, 1e-3, 6)
    samples = thermo.evaluate_samples(traj, model)
    c = thermo.nlp_comparison(traj, model, samples, params.bath_beta)
    assert np.all(np.abs(c.slack_S23) < 1e-12)
    assert np.all(np.isnan(c.slack_S25))


def test_nlp_driven_slack_matches_relative_entropy(fig2_result):
    c = fig2_result.nlp
    assert c is not None
    bath_beta = 1.0
    for k in range(0, len(c), 40):
        eq = qstate.gibbs_state(fig2_result.config.model.hamiltonian_protocol(c.t[k]), bath_beta)
        d = qstate.relative_entropy(states_of(fig2_result.trajectory)[k], eq)
        assert c.slack_S25[k] == pytest.approx(d, abs=1e-8)
        assert c.slack_S25[k] >= -1e-8


def sampled_trajectory(states):
    """A Trajectory of given states at times 0, 1, ..., with their spectra."""
    m, coordinates = len(states), hermitian_coordinates(states)
    return full_trajectory(np.arange(m, dtype=float), coordinates, np.zeros(m), np.zeros(m),
                           np.linalg.eigvalsh(density_matrices(coordinates)))


@hst.composite
def states_hamiltonians_and_betas(draw):
    """Up to five states of random rank with one Hamiltonian each (d <= 4, with
    or without degenerate levels) and one beta each."""
    dim = draw(hst.sampled_from([2, 3, 4]))
    m = draw(hst.integers(1, 5))
    rng = np.random.default_rng(draw(hst.integers(0, 2 ** 32 - 1)))
    hs = np.array([random_hamiltonian(rng, draw(degeneracy_patterns(dim))) for _ in range(m)])
    states = np.array([random_state_of_rank(rng, dim, int(rng.integers(1, dim + 1)))
                       for _ in range(m)])
    return hs, states, rng.uniform(-2.0, 2.0, size=m)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(states_hamiltonians_and_betas())
def test_instantaneous_relative_entropy_matches_oracle(case):
    # D_inst comes from the Gibbs weights and the energy-basis populations;
    # the oracle decomposes each rho and each Gibbs state on its own
    hs, states, betas = case
    traj = sampled_trajectory(states)
    driven = LindbladModel(dim=hs.shape[-1], hamiltonian_protocol=lambda t: hs[np.rint(t).astype(int)],
                           channels=(),
                           hamiltonian_rate_protocol=lambda t: np.zeros_like(hs[0]))
    series = [BetaSolveResult(float(b), 0.0, False) for b in betas]
    rows = thermo.driven_bounds(traj, driven, thermo.evaluate_samples(traj, driven), series)
    expected = [float(qstate.relative_entropy(rho, qstate.gibbs_state(h, b)))
                for rho, h, b in zip(states, hs, betas)]
    assert rows.D_inst == pytest.approx(expected, abs=1e-12)
    # an undriven model shares the reference of t = 0 across the samples
    undriven = LindbladModel(dim=hs.shape[-1], hamiltonian_protocol=lambda t: hs[0],
                             channels=())
    rows = thermo.undriven_bounds(traj, undriven, thermo.evaluate_samples(traj, undriven),
                                  series[0])
    expected = qstate.relative_entropy(states, qstate.gibbs_state(hs[0], betas[0]))
    assert rows.D_inst == pytest.approx(expected, abs=1e-12)


def test_singular_reference_leaves_the_identity_pair_undefined():
    # beta = 30 on levels 0 and 1 gives the excited level a weight of 9.4e-14
    traj = sampled_trajectory(np.array([np.diag([0.6, 0.4]).astype(complex)]))
    model = LindbladModel(dim=2, hamiltonian_protocol=lambda t: np.diag([0.0, 1.0]),
                          channels=())
    samples = thermo.evaluate_samples(traj, model)
    rows = thermo.undriven_bounds(traj, model, samples,
                                  BetaSolveResult(30.0, 0.0, False))
    assert math.isnan(rows.D_inst[0]) and math.isfinite(rows.gap[0])
    assert rows.flags[0] == ("identity_suppressed",)
    rows = thermo.undriven_bounds(traj, model, samples,
                                  BetaSolveResult(27.0, 0.0, False))
    assert math.isfinite(rows.D_inst[0]) and rows.flags[0] == ()


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(hst.sampled_from([2, 3, 4]), hst.integers(0, 2 ** 32 - 1))
def test_entropy_from_trajectory_spectra_is_bit_for_bit(dim, seed):
    # S is read from the spectra that propagate computed for its positivity check
    rng = np.random.default_rng(seed)
    jump = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    jump /= np.linalg.norm(jump)
    h = random_hamiltonian(rng, [1] * dim)
    model = LindbladModel(dim=dim, hamiltonian_protocol=lambda t: h,
                          channels=(JumpChannel.constant(0.3, jump),))
    traj = propagate(model, random_state_of_rank(rng, dim, dim), 2.0, 0.01, 21)
    assert np.array_equal(traj.spectra, linalg.eigvalsh(states_of(traj)))
    assert np.array_equal(traj.min_eigenvalues, traj.spectra[:, 0])
    values = thermo.evaluate_samples(traj, model)
    assert np.array_equal(values.S, qstate.von_neumann_entropy(states_of(traj)))


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(hst.booleans().flatmap(lambda driven: random_lindbladians(driven=driven)))
def test_first_law_bounds_need_no_bath_on_generic_models(case):
    # Generic Lindbladians (cf. Denisov et al., PRL 123, 140403, 2019) have no
    # bath temperature; the bound chain needs only entropy matching. By the
    # first law dE_S = W - Q, upper - Q = T_R(0) gap = T_R(0) D(rho || rho_th),
    # which is how the paper derives the heat bound. An undriven model runs
    # both wrappers: beta_R fixed at t = 0, and matched at every sample.
    model, rho0 = case
    t_end = 0.5
    traj = propagate(model, rho0, t_end, quiet_step(model, t_end), 11)
    samples = thermo.evaluate_samples(traj, model)
    v = samples
    series = refsolve.solve_beta_series(samples.levels, v.S)
    runs = [(thermo.driven_bounds(traj, model, samples, series), series[0])]
    if not model.driven:
        reference = refsolve.solve_beta(samples.levels[0], v.S[0])
        runs.append((thermo.undriven_bounds(traj, model, samples, reference), reference))
    for rows, reference in runs:
        assert np.all(rows.gap >= -1e-10)
        assert np.max(np.abs(rows.gap - rows.D_inst)) < 1e-10
        assert np.max(np.abs(rows.dS - (rows.dS_diag - rows.dCoh))) < 1e-12
        balance = np.abs((v.E_S - v.E_S[0]) - (rows.W - rows.Q))
        assert np.max(balance) < 1e-8
        t_r0 = 1.0 / reference.beta_R
        assert np.all(np.abs(rows.upper - rows.Q - t_r0 * rows.gap)
                      <= balance + 1e-12 * max(1.0, t_r0))
        assert np.all(rows.Q <= rows.upper + 1e-8)


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(random_davies_models())
def test_landauer_side_on_random_undriven_davies_models(case):
    # A Davies generator relaxes every state to the Gibbs state rho_eq at its
    # beta. With bath_T = 1/beta the nlp_S23 slack is D(rho || rho_eq), which
    # never increases (Spohn, J. Math. Phys. 19, 1227, 1978), and by the first
    # law Q + T dS = T (D(rho(0) || rho_eq) - D(rho(t) || rho_eq)) >= 0, which
    # is the Landauer side Q >= lp_lower = -T dS.
    model, rho0, beta = case
    t_end = 2.0
    traj = propagate(model, rho0, t_end, quiet_step(model, t_end), 11)
    samples = thermo.evaluate_samples(traj, model)
    reference = refsolve.solve_beta(samples.levels[0], samples.S[0])
    rows = thermo.undriven_bounds(traj, model, samples, reference, bath_T=1.0 / beta)
    slack = thermo.nlp_comparison(traj, model, samples, beta).slack_S23
    rho_eq = qstate.gibbs_state(model.hamiltonian_protocol(0.0), beta)
    oracle = qstate.relative_entropy(states_of(traj), rho_eq)
    assert np.max(np.abs(slack - oracle)) < 1e-10
    assert np.all(np.diff(slack) <= 1e-12)
    assert np.all(rows.Q - rows.lp_lower >= -1e-10)
    assert np.max(np.abs((rows.Q - rows.lp_lower) - (oracle[0] - oracle) / beta)) < 1e-10


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(random_davies_models(driven=True))
def test_landauer_side_on_random_driven_davies_models(case):
    # The Gibbs state rho_eq(t) of H(t) at beta is stationary under the jumps
    # at t, so with bath_T = 1/beta the entropy production dS + beta dQ is
    # >= 0 (Spohn, J. Math. Phys. 19, 1227, 1978): the Landauer side
    # Q >= -T dS. The nlp_S25 slack is beta E_S - S + ln Z(t) =
    # D(rho(t) || rho_eq(t)) >= 0, the same expression as nlp_S23.
    model, rho0, beta = case
    t_end = 1.0
    traj = propagate(model, rho0, t_end, quiet_step(model, t_end), 11)
    samples = thermo.evaluate_samples(traj, model)
    slack = thermo.nlp_comparison(traj, model, samples, beta).slack_S25
    h = model.hamiltonian_protocol(traj.times)
    rho_eq = np.array([qstate.gibbs_state(ht, beta) for ht in h])
    oracle = qstate.relative_entropy(states_of(traj), rho_eq)
    assert np.all(slack >= -1e-12)
    assert np.max(np.abs(slack - oracle)) < 1e-10
    assert np.all(traj.heat + (samples.S - samples.S[0]) / beta >= -1e-10)
    # negative control: against the Gibbs state of H(0), which the drive
    # rotates away from, the slack is not the relative entropy
    frozen = qstate.relative_entropy(states_of(traj), qstate.gibbs_state(h[0], beta))
    assert np.max(np.abs(slack - frozen)) > 1e-6

"""The paper's claims at paper parameters: Fig. 1, its population-inverted
inset, Fig. 2 and the Fig. S1 tau-sweep, each checked on the full-size run."""

import numpy as np
import pytest
from full_width import states_of

from landauer_bounds import cli, models, qstate

UNDRIVEN_VERDICTS = {"gap_nonneg", "gap_identity", "heat_upper", "coherence_split"}
DRIVEN_VERDICTS = UNDRIVEN_VERDICTS | {"lp_lower", "nlp_S23", "nlp_S25"}


@pytest.mark.parametrize("fixture, expected", [
    ("fig1_result", UNDRIVEN_VERDICTS),
    ("fig1_inset_result", UNDRIVEN_VERDICTS),
    ("fig2_result", DRIVEN_VERDICTS),
])
def test_every_verdict_holds(request, fixture, expected):
    verdicts = request.getfixturevalue(fixture).meta["verdicts"]
    assert set(verdicts) == expected
    assert all(v["holds"] for v in verdicts.values()), verdicts


def test_every_figS1_verdict_holds(figS1_results):
    # tau = 5, 10 and 20 at dt = tau / 20000: 60k driven steps in all
    assert list(figS1_results) == ["tau=5", "tau=10", "tau=20"]
    for name, result in figS1_results.items():
        tau = float(name.removeprefix("tau="))
        assert result.trajectory.n_steps == 20000
        assert result.trajectory.times[-1] == pytest.approx(tau)
        verdicts = result.meta["verdicts"]
        assert set(verdicts) == DRIVEN_VERDICTS
        assert all(v["holds"] for v in verdicts.values()), (name, verdicts)


@pytest.mark.parametrize("fixture", ["fig1_result", "fig1_inset_result"])
def test_bell_fidelity_never_decreases(request, fixture):
    result = request.getfixturevalue(fixture)
    fidelity = np.array([qstate.fidelity_pure(st, result.config.bell)
                         for st in states_of(result.trajectory)])
    assert np.all(np.diff(fidelity) >= 0.0)
    assert fidelity[-1] > 0.69
    assert result.meta["bell_fidelity_end"] == fidelity[-1]


def test_first_law_bound_closes_one_order_in_tau_faster_than_landauer(tmp_path):
    # Fig. 2 with only tau changed, at dt = tau / 20000 and 401 samples. At t = tau
    # the upper slack upper - Q is T_R(0) D(rho || rho_th), O(1/tau^2) in slow
    # driving, and the Landauer slack Q - lp_lower is the entropy production,
    # O(1/tau). Measured slopes: -1.95, -2.00, -2.00 and -0.95, -1.02, -1.04; the
    # bands below are +-0.2 around -2 and -1.
    taus = [10.0, 20.0, 40.0, 80.0]
    upper, landauer = [], []
    for tau in taus:
        raw = cli.scenario_defaults("fig2")
        raw["model_params"]["tau"] = tau
        raw["integrator"] = {"dt": tau / 20000, "t_end": tau, "n_samples": 401}
        bounds = cli.run_pipeline(cli.build_config(raw, "fig2", tmp_path, plots=False)).bounds
        upper.append(bounds.upper[-1] - bounds.Q[-1])
        landauer.append(bounds.Q[-1] - bounds.lp_lower[-1])
    upper, landauer = np.array(upper), np.array(landauer)
    assert np.all(upper > 0.0) and np.all(upper < landauer), (upper, landauer)
    upper_slopes = np.diff(np.log(upper)) / np.diff(np.log(taus))
    landauer_slopes = np.diff(np.log(landauer)) / np.diff(np.log(taus))
    assert np.all(np.abs(upper_slopes + 2.0) < 0.2), upper_slopes
    assert np.all(np.abs(landauer_slopes + 1.0) < 0.2), landauer_slopes


def _master_equation_matrix(model, t):
    """The (d^2, d^2) matrix of drho/dt at time t for row-major vec(rho): column k
    is the Lindblad right-hand side of the k-th matrix unit, in matrix products."""
    h = model.hamiltonian_protocol(t)
    jumps = [(ch.rate, ch.operator_protocol(t)) for ch in model.channels]

    def rhs(rho):
        out = -1j * (h @ rho - rho @ h)
        for rate, op in jumps:
            dag = op.conj().T
            out = out + rate * (op @ rho @ dag - 0.5 * (dag @ op @ rho + rho @ dag @ op))
        return out

    d = model.dim
    return np.column_stack([rhs(unit.reshape(d, d)).ravel() for unit in np.eye(d * d)])


def _gibbs(h, beta):
    energies, vectors = np.linalg.eigh(h)
    weights = np.exp(-beta * (energies - energies[0]))
    return (vectors * (weights / weights.sum())) @ vectors.conj().T


def _slow_driving_response(model, beta, s):
    """The slow-driving linear response of the erasure at tau = 1 and time s (Cavina,
    Mari & Giovannetti, PRL 119, 050601; Scandi & Perarnau-Llobet, Quantum 3, 197):
    at t = s tau the state is rho_eq(s) + delta(s) / tau, with rho_eq(s) the Gibbs
    state of H(s) at the bath's beta and delta(s) the traceless solution of
    A(s) delta = d_s rho_eq(s), A(s) the generator. A is built here from the model's
    protocols, not from the propagator's generators. Returns d_s rho_eq(s) and
    delta(s), both rotated into the eigenbasis of rho_eq(s), and the weights of
    D ln_rho_eq, the derivative of the logarithm at rho_eq(s), in that basis."""
    step = 1e-5  # a central difference of rho_eq(s), exact to about step^2
    d_eq = (_gibbs(model.hamiltonian_protocol(s + step), beta)
            - _gibbs(model.hamiltonian_protocol(s - step), beta)) / (2.0 * step)
    eq = _gibbs(model.hamiltonian_protocol(s), beta)
    solution = np.linalg.lstsq(_master_equation_matrix(model, s), d_eq.ravel(),
                               rcond=None)[0].reshape(model.dim, model.dim)
    delta = solution - np.trace(solution) * eq  # A's kernel is rho_eq(s)
    p, vectors = np.linalg.eigh(eq)
    gaps = np.subtract.outer(p, p)
    np.fill_diagonal(gaps, 1.0)
    log_weights = np.subtract.outer(np.log(p), np.log(p)) / gaps
    np.fill_diagonal(log_weights, 1.0 / p)
    return vectors.conj().T @ d_eq @ vectors, vectors.conj().T @ delta @ vectors, log_weights


def _erasure_at_unit_tau():
    raw = cli.scenario_defaults("fig2")
    params = models.ErasureParams(**{**raw["model_params"], "tau": 1.0})
    return raw, models.build_erasure(params), params.bath_beta


def _fig2_at(raw, tau, dt, tmp_path):
    raw["model_params"]["tau"] = tau
    raw["integrator"] = {"dt": dt, "t_end": tau, "n_samples": 401}
    return cli.run_pipeline(cli.build_config(raw, "fig2", tmp_path, plots=False)).bounds


def test_first_law_bound_slack_matches_its_slow_driving_prefactor(tmp_path):
    # tau^2 (upper - Q) at t = tau tends to T_R(0) / 2 Tr[delta D ln_rho_eq(delta)]
    # at s = 1, the Kubo-Mori metric of delta.
    raw, model, beta = _erasure_at_unit_tau()
    _, delta, log_weights = _slow_driving_response(model, beta, 1.0)
    t_r0 = 1.0 / raw["initial_state"]["beta"]  # a Gibbs start at beta has beta_R(0) = beta
    predicted = t_r0 * 0.5 * float(np.sum(np.abs(delta) ** 2 * log_weights))
    # fig2 with tau = 80 at dt = tau / 20000 reads 0.244223 against 0.244275
    # predicted (-2.1e-4). Doubling every rate moves the run to 0.23721 (-2.9 %).
    tau = 80.0
    bounds = _fig2_at(raw, tau, tau / 20000, tmp_path)
    assert tau ** 2 * (bounds.upper[-1] - bounds.Q[-1]) == pytest.approx(predicted, rel=1e-3)


def test_landauer_slack_matches_its_slow_driving_prefactor(tmp_path):
    # tau (Q - lp_lower) at t = tau, the entropy production, tends to
    # -T int_0^1 ds Tr[d_s rho_eq D ln_rho_eq(delta)] with T the bath's temperature:
    # 7.306358 (the trapezoid rule on 201 points agrees with 2,001 to 1e-11). The
    # run approaches it as 1/tau, so the Richardson value 2 L(2 tau) - L(tau) is
    # compared. tau = 160 and 320 at dt = 0.0064 keep dt times the largest
    # generator norm (14.49, at t = tau) at 0.093, below the coarse-step warning;
    # they read 7.541321 and 7.432018, whose Richardson value 7.322715 lies
    # +2.2e-3 from the prediction (the 1/tau^2 term; 320 and 640 give +5.7e-4).
    # Doubling every rate moves tau = 80 from 7.715 to 4.424.
    raw, model, beta = _erasure_at_unit_tau()
    s = np.linspace(0.0, 1.0, 201)
    integrand = []
    for point in s:
        d_eq, delta, log_weights = _slow_driving_response(model, beta, point)
        integrand.append(float(np.sum(d_eq.T * delta * log_weights).real))
    predicted = -np.trapezoid(integrand, s) / beta
    slack = []
    for tau in (160.0, 320.0):
        bounds = _fig2_at(raw, tau, 0.0064, tmp_path)
        slack.append(tau * (bounds.Q[-1] - bounds.lp_lower[-1]))
    assert 2.0 * slack[1] - slack[0] == pytest.approx(predicted, rel=3e-3)

"""The paper's claims at paper parameters: Fig. 1, its population-inverted
inset, Fig. 2 and the Fig. S1 tau-sweep, each checked on the full-size run."""

import numpy as np
import pytest

from landauer_bounds import qstate

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
                         for st in result.trajectory.states])
    assert np.all(np.diff(fidelity) >= 0.0)
    assert fidelity[-1] > 0.69
    assert result.meta["bell_fidelity_end"] == fidelity[-1]

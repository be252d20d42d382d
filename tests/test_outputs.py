import dataclasses
import math

import numpy as np
import pytest

from landauer_bounds import outputs, thermo
from landauer_bounds.lindblad import Trajectory
from landauer_bounds.refsolve import BetaSolveResult

M = 3  # samples per constructed table


def tables(flipped=False):
    """Bounds and NLP slacks of M samples on which every verdict holds with slack 0
    or 1: gap = D_inst = 1, Q = 0, upper = +-1, lp_lower = -1, dS = dS_diag = dCoh = 0."""
    ones, zeros = np.ones(M), np.zeros(M)
    columns = {f.name: zeros.copy() for f in dataclasses.fields(thermo.Bounds)}
    columns.update(gap=ones.copy(), D_inst=ones.copy(), lp_lower=-ones,
                   upper=-ones if flipped else ones.copy(),
                   flags=[("direction_flipped",) if flipped else ()] * M)
    return columns, {"t": zeros, "slack_S23": ones.copy(), "slack_S25": ones.copy()}


# The column holding each verdict's slack s at sample 1, and its value there.
SLACK_AT = {
    "gap_nonneg": ("gap", lambda s: s),
    "gap_identity": ("D_inst", lambda s: 1.0 - s),
    "heat_upper": ("upper", lambda s: s),
    "heat_lower_flipped": ("upper", lambda s: -s),
    "lp_lower": ("lp_lower", lambda s: -s),
    "coherence_split": ("dS", lambda s: s),
    "nlp_S23": ("slack_S23", lambda s: s),
    "nlp_S25": ("slack_S25", lambda s: s),
}


def worsen(bounds, nlp, name, slack):
    """Set the slack of verdict ``name`` at sample 1 to ``slack``."""
    column, value = SLACK_AT[name]
    (nlp if column.startswith("slack") else bounds)[column][1] = value(slack)
    if name == "gap_nonneg":  # so that gap_identity still holds
        bounds["D_inst"][1] = slack


def verdicts_of(bounds, nlp, flipped=False):
    return outputs._verdicts(thermo.Bounds(**bounds), thermo.NlpComparison(**nlp), flipped)


def block(bounds, nlp, start=0):
    """A Block of M qubit samples, at times start, start + 1, ..., around the tables."""
    times = start + np.arange(M, dtype=float)
    zeros = np.zeros(M)
    traj = Trajectory(times=times, coordinates=np.tile([1.0, 0.0, 0.0, 0.0], (M, 1)),
                      support=np.arange(4), heat=zeros, work=zeros,
                      spectra=np.tile([0.0, 1.0], (M, 1)), trace_drifts=zeros,
                      max_step_trace_drift=0.0, dt=1.0, n_steps=M)
    bounds = thermo.Bounds(**{**bounds, "t": times})
    return outputs.Block(traj, bounds, thermo.NlpComparison(**{**nlp, "t": times}),
                         thermo.Origin(None, BetaSolveResult(1.0, 0.0, False)))


@pytest.mark.parametrize("name", SLACK_AT)
@pytest.mark.parametrize("slack, holds", [(-1.1e-6, False), (-0.9e-6, True)])
def test_each_verdict_fails_just_beyond_its_tolerance(name, slack, holds):
    # VERDICT_TOL is 1e-6: a worst slack of -1.1e-6 fails and -0.9e-6 holds,
    # and so does each other verdict's own slack of 0 or 1
    flipped = name == "heat_lower_flipped"
    bounds, nlp = tables(flipped)
    worsen(bounds, nlp, name, slack)
    verdicts = verdicts_of(bounds, nlp, flipped)
    assert verdicts[name]["worst_slack"] == pytest.approx(slack, rel=1e-9, abs=0)
    assert verdicts[name]["holds"] is holds
    assert all(v["holds"] for other, v in verdicts.items() if other != name)
    assert ("heat_upper" in verdicts) is not flipped
    assert ("heat_lower_flipped" in verdicts) is flipped

    # the same table, its worst sample in the second of two blocks of a run
    summary = outputs.Summary(2 * M)
    summary.add(block(*tables(flipped)))
    summary.add(block(bounds, nlp, start=M))
    assert summary.verdicts == verdicts


@pytest.mark.parametrize("name", ["gap_nonneg", "gap_identity", "heat_upper", "lp_lower",
                                  "nlp_S25"])
def test_partial_verdicts_skip_nan_and_vanish_where_all_is_nan(name):
    bounds, nlp = tables()
    column = SLACK_AT[name][0]
    table = nlp if column.startswith("slack") else bounds
    table[column][0] = np.nan
    worsen(bounds, nlp, name, -0.5)
    assert verdicts_of(bounds, nlp)[name] == {"worst_slack": pytest.approx(-0.5), "holds": False}
    table[column][:] = np.nan
    assert name not in verdicts_of(bounds, nlp)


@pytest.mark.parametrize("name", ["coherence_split", "nlp_S23"])
def test_a_nan_fails_a_full_verdict_and_stays_its_worst(name):
    bounds, nlp = tables()
    column = SLACK_AT[name][0]
    (nlp if column.startswith("slack") else bounds)[column][2] = np.nan
    verdict = verdicts_of(bounds, nlp)[name]
    assert math.isnan(verdict["worst_slack"]) and verdict["holds"] is False
    # a NaN in the first block is kept over a later block's worse number
    summary = outputs.Summary(2 * M)
    summary.add(block(bounds, nlp))
    worse = tables()
    worsen(*worse, name, -0.5)
    summary.add(block(*worse, start=M))
    assert math.isnan(summary.verdicts[name]["worst_slack"])
    assert summary.verdicts[name]["holds"] is False

import math

import hypothesis.strategies as hst
import numpy as np
import pytest
from hypothesis import given, settings

from landauer_bounds import refsolve
from landauer_bounds.errors import ConstantEntropy, TargetOutOfRange
from landauer_bounds.refsolve import (
    BRANCH_NEGATIVE,
    BRANCH_NON_NEGATIVE,
    solve_beta,
    solve_beta_series,
)

QUBIT_H = np.diag([0.5, -0.5]).astype(complex)
QUBIT_LEVELS = np.array([-0.5, 0.5])


def binary_entropy(p):
    return -(p * math.log(p) + (1 - p) * math.log(1 - p))


def gibbs_entropy(h, beta):
    """von Neumann entropy of the Gibbs state of ``h`` at beta >= 0, from its
    levels written out one by one (``oracle_entropy``)."""
    return oracle_entropy(np.linalg.eigvalsh(h).tolist(), beta)


def test_gibbs_entropy_infinite_temperature():
    assert gibbs_entropy(np.diag(np.arange(9.0)).astype(complex), 0.0) == pytest.approx(
        math.log(9), abs=1e-12)


def test_gibbs_entropy_two_level_closed_form():
    p = math.exp(0.5) / (2 * math.cosh(0.5))
    assert gibbs_entropy(QUBIT_H, 1.0) == pytest.approx(binary_entropy(p), abs=1e-12)
    assert gibbs_entropy(QUBIT_H, 1.0) == pytest.approx(0.5822, abs=5e-5)


def test_gibbs_entropy_ground_state_limit():
    assert gibbs_entropy(QUBIT_H, 5000.0) == pytest.approx(0.0, abs=1e-12)


def test_solve_beta_maximally_mixed_target():
    res = solve_beta(QUBIT_LEVELS, math.log(2))
    assert res.beta_R == 0.0
    assert not res.saturated


def test_solve_beta_two_level_with_scan_oracle():
    s_target = binary_entropy(math.exp(0.5) / (2 * math.cosh(0.5)))
    res = solve_beta(QUBIT_LEVELS, s_target)
    assert res.residual < 1e-10
    assert res.beta_R == pytest.approx(1.0, abs=1e-9)
    # brute-force scan oracle: unique sign change of S(beta) - target
    grid = np.linspace(0.0, 8.0, 4001)
    signs = np.sign([gibbs_entropy(QUBIT_H, b) - s_target for b in grid])
    changes = np.nonzero(np.diff(signs))[0]
    assert len(changes) == 1
    assert grid[changes[0]] <= res.beta_R <= grid[changes[0] + 1]


@pytest.mark.parametrize("beta_star", [0.0, 0.5, 1.0, 5.0, 30.0])
def test_solve_beta_round_trip_qubit(beta_star):
    res = solve_beta(QUBIT_LEVELS, gibbs_entropy(QUBIT_H, beta_star))
    assert abs(res.beta_R - beta_star) < 1e-7 * (1 + beta_star)
    assert res.residual < 1e-10


def test_solve_beta_saturates_for_pure_target():
    res = solve_beta(QUBIT_LEVELS, 0.0)
    assert res.saturated
    assert res.beta_R == pytest.approx(1e8 / 1.0)  # cap = 1e8 / spread


def test_solve_beta_validation():
    with pytest.raises(TargetOutOfRange):
        solve_beta(QUBIT_LEVELS, math.log(2) + 1e-3)
    with pytest.raises(TargetOutOfRange):
        solve_beta(QUBIT_LEVELS, -0.5)
    with pytest.raises(ConstantEntropy):
        solve_beta(np.ones(3), 0.5)


def test_solve_beta_negative_branch():
    # Symmetric two-level spectrum: the inverted-population state with the
    # entropy of the beta = 1 Gibbs state sits at beta_R = -1.
    s_target = gibbs_entropy(QUBIT_H, 1.0)
    res = solve_beta(QUBIT_LEVELS, s_target, branch=BRANCH_NEGATIVE)
    assert res.beta_R == pytest.approx(-1.0, abs=1e-9)
    assert res.residual < 1e-10


def test_series_constant_hamiltonian_constant_entropy():
    s = gibbs_entropy(QUBIT_H, 2.0)
    out = solve_beta_series(np.array([QUBIT_LEVELS] * 3), [s] * 3)
    betas = [r.beta_R for r in out]
    assert max(betas) - min(betas) < 1e-10
    assert betas[0] == pytest.approx(2.0, abs=1e-8)


def test_series_is_a_per_sample_solve():
    # No state is carried between samples: each entry equals a lone solve.
    times = np.linspace(0.0, 2.0, 21)
    hs = [(0.5 + 0.3 * t) * QUBIT_H for t in times]
    targets = [gibbs_entropy(h, 1.0 + 0.5 * math.sin(3 * t)) for t, h in zip(times, hs)]
    targets[7] = 0.0  # saturated sample
    targets[11] = math.log(2)  # solved at beta = 0
    hs[15] = 0.4 * np.eye(2, dtype=complex)  # constant H: the entropy does not depend on beta
    levels = np.array([np.linalg.eigvalsh(h) for h in hs])
    rest = [i for i in range(len(times)) if i != 15]
    for branch in (BRANCH_NON_NEGATIVE, BRANCH_NEGATIVE):
        series = solve_beta_series(levels, targets, branch)
        assert [series[i] for i in rest] == [solve_beta(levels[i], targets[i], branch)
                                             for i in rest]
        with pytest.raises(ConstantEntropy):
            solve_beta(levels[15], targets[15], branch)
        assert series[15].error is not None and math.isnan(series[15].beta_R)
        assert series[7].saturated
        assert series[11].beta_R == 0.0
        assert all(series[i].residual < 1e-10 for i in rest if i != 7)


def test_series_collects_per_sample_errors():
    s = gibbs_entropy(QUBIT_H, 1.0)
    flat = np.ones(2)  # zero level spread: entropy is constant
    levels = np.array([QUBIT_LEVELS, flat, QUBIT_LEVELS])
    out = solve_beta_series(levels, [s, s, s])
    assert out[0].error is None and out[2].error is None
    assert out[1].error is not None and math.isnan(out[1].beta_R)
    assert out[2].beta_R == pytest.approx(1.0, abs=1e-8)


def oracle_entropy(levels, beta):
    """Gibbs entropy at beta >= 0 written out level by level."""
    x = [-beta * (e - levels[0]) for e in levels]
    z = math.fsum(math.exp(v) for v in x)
    return math.log(z) - math.fsum(math.exp(v) / z * v for v in x)


def oracle_beta(levels, target):
    """Scalar bisection on the doubling bracket, to a width of 1e-15 (1 + hi)."""
    lo, hi = 0.0, 1.0
    while oracle_entropy(levels, hi) >= target:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-15 * (1.0 + hi):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if oracle_entropy(levels, mid) >= target else (lo, mid)
    return 0.5 * (lo + hi)


@hst.composite
def ground_degenerate_levels(draw, ground):
    """Ascending levels, d <= 4, whose lowest level is repeated ``ground`` times;
    the other gaps are 0.5 to 2."""
    dim = draw(hst.integers(ground + 1, 4))
    gaps = draw(hst.lists(hst.floats(0.5, 2.0), min_size=dim - ground, max_size=dim - ground))
    return draw(hst.floats(-2.0, 2.0)) + np.concatenate([np.zeros(ground), np.cumsum(gaps)])


SOLVER_CASES = settings(max_examples=40, derandomize=True, deadline=None, database=None)


@pytest.mark.parametrize("ground", [1, 2], ids=["non-degenerate", "degenerate-ground"])
@SOLVER_CASES
@given(data=hst.data())
def test_solve_beta_matches_a_bisection_oracle_on_both_branches(ground, data):
    levels = data.draw(ground_degenerate_levels(ground))
    # beta* in [0.3, 3]: S(beta) is steep enough there that the two roots
    # differ only by rounding
    steps = data.draw(hst.lists(hst.floats(0.05, 0.5), min_size=2, max_size=5))
    betas = 0.25 + np.cumsum(steps)
    targets = [oracle_entropy(levels, b) for b in betas]
    series = solve_beta_series(np.tile(levels, (len(targets), 1)), targets)
    assert all(r.residual < 1e-10 and not r.saturated for r in series)
    solved = [r.beta_R for r in series]
    assert np.all(np.diff(solved) > 0.0)  # the entropy targets decrease
    for beta, target in zip(solved, targets):
        assert abs(beta - oracle_beta(levels, target)) <= 1e-12 * (1.0 + abs(beta))
        # S(beta; w) = S(-beta; -w): the negative branch on the mirrored levels
        mirrored = solve_beta(-levels[::-1], target, branch=BRANCH_NEGATIVE)
        assert mirrored.beta_R == pytest.approx(-beta, rel=1e-12, abs=1e-12)
        assert mirrored.residual < 1e-10


@pytest.mark.parametrize("ground", [1, 2], ids=["non-degenerate", "degenerate-ground"])
@SOLVER_CASES
@given(data=hst.data())
def test_target_below_the_entropy_floor_saturates_at_the_cap(ground, data):
    levels = data.draw(ground_degenerate_levels(ground))
    target = data.draw(hst.floats(0.0, 0.99)) * math.log(ground)  # floor ln(ground)
    cap = 1e8 / (levels[-1] - levels[0])
    res = solve_beta(levels, target)
    assert res.saturated and res.beta_R == cap
    mirrored = solve_beta(-levels[::-1], target, branch=BRANCH_NEGATIVE)
    assert mirrored.saturated and mirrored.beta_R == -cap

"""Solve the entropy-matching condition S(gibbs(beta_R, H)) = S_target.

The Gibbs entropy is strictly decreasing in beta on the non-negative branch
(and increasing on the negative branch) for any H not proportional to the
identity, so bisection on a doubling bracket converges unconditionally; its
derivative -beta Var(E) vanishes at beta = 0 and at saturation, which rules
out Newton-type iterations. Every solve starts from the same bracket, so a
series of solves is one solve per sample on that sample's energy levels. The
samples of a series are solved at once: bracket doubling and bisection run on
an (m, d) array of levels, and each row leaves the live set at the step where
a lone solve of that row would stop, so ``solve_beta`` is the one-row case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .errors import ConstantEntropy, TargetOutOfRange
from .linalg import EigenSystem

BRANCH_NON_NEGATIVE = "non-negative"
BRANCH_NEGATIVE = "negative"

_MAX_BISECTIONS = 200
_CAP_FACTOR = 1e8


@dataclass(frozen=True)
class BetaSolveResult:
    """Outcome of one entropy-matching solve.

    ``saturated`` means the target lies below the entropy floor reachable on
    the searched branch; ``beta_R`` is then the search cap, not a root.
    Failed solves in a series carry the message in ``error``.
    """

    beta_R: float
    residual: float
    saturated: bool
    branch: str
    error: str | None = None


def _entropy_from_levels(levels: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Gibbs entropy of each level row (..., d) at its beta (...).

    Computed as ln z - sum p x on the shifted exponents x = -beta (E - E_ext),
    never as ln Z + beta <E>, which cancels catastrophically near the cap.
    """
    beta = np.asarray(beta, dtype=np.float64)[..., None]
    x = -beta * (levels - np.where(beta >= 0.0, levels[..., :1], levels[..., -1:]))
    weights = np.exp(x)
    z = weights.sum(axis=-1, keepdims=True)
    return (np.log(z) - np.sum(weights / z * x, axis=-1, keepdims=True))[..., 0]


def gibbs_entropy(h: np.ndarray, beta: float) -> float:
    """von Neumann entropy of the Gibbs state of ``h`` at inverse parameter beta."""
    if not math.isfinite(beta):
        raise ValueError("beta must be finite")
    return float(_entropy_from_levels(linalg.eigh(h).eigenvalues, beta))


def _row_errors(levels: np.ndarray, targets: np.ndarray) -> list[Exception | None]:
    """Why each (levels, target) row has no solution, or None when it has one."""
    dim = levels.shape[-1]
    spread = levels[:, -1] - levels[:, 0]
    constant = spread <= 1e-13 * np.maximum(1.0, np.max(np.abs(levels), axis=-1))
    out_of_range = ~np.isfinite(targets) | (targets < -1e-12) | (targets > math.log(dim) + 1e-10)
    return [ConstantEntropy("Hamiltonian proportional to identity: entropy constant") if c
            else TargetOutOfRange(f"entropy target {t!r} outside [0, ln {dim}]") if o else None
            for c, o, t in zip(constant.tolist(), out_of_range.tolist(), targets.tolist())]


def _solve_rows(levels: np.ndarray, targets: np.ndarray,
                branch: str) -> list[BetaSolveResult]:
    """Entropy matching on every row of solvable (m, d) levels at once.

    Every row follows the search that ``solve_beta`` documents: the bracket
    edge doubles from 1 until the entropy falls below the target or passes
    the cap 1e8 / spread, then bisection halves the bracket until it is
    narrower than 1e-13 (1 + |hi|). A row leaves the live set at the step
    where it would stop if solved alone, so its result does not depend on
    the other rows.
    """
    if branch == BRANCH_NON_NEGATIVE:
        sign, search = 1.0, levels
    elif branch == BRANCH_NEGATIVE:
        sign, search = -1.0, -levels[:, ::-1]
    else:
        raise ValueError(f"unknown branch {branch!r}")
    m = len(targets)
    cap = _CAP_FACTOR / (levels[:, -1] - levels[:, 0])
    s0 = _entropy_from_levels(search, np.zeros(m))
    at_zero = s0 <= targets
    saturated = np.zeros(m, dtype=bool)
    lo, hi = np.zeros(m), np.ones(m)

    live = np.flatnonzero(~at_zero)
    while live.size:
        above = _entropy_from_levels(search[live], hi[live]) >= targets[live]
        live = live[above]
        lo[live], hi[live] = hi[live], 2.0 * hi[live]
        over = hi[live] > cap[live]
        saturated[live[over]] = True
        live = live[~over]

    live = np.flatnonzero(~at_zero & ~saturated)
    for _ in range(_MAX_BISECTIONS):
        if not live.size:
            break
        mid = 0.5 * (lo[live] + hi[live])
        up = _entropy_from_levels(search[live], mid) >= targets[live]
        lo[live[up]], hi[live[~up]] = mid[up], mid[~up]
        live = live[hi[live] - lo[live] > 1e-13 * (1.0 + np.abs(hi[live]))]

    beta = np.where(at_zero, 0.0, sign * np.where(saturated, cap, 0.5 * (lo + hi)))
    residual = np.abs(_entropy_from_levels(levels, beta) - targets)
    return [BetaSolveResult(b, r, s, branch)
            for b, r, s in zip(beta.tolist(), residual.tolist(), saturated.tolist())]


def solve_beta(basis: EigenSystem, s_target: float,
               branch: str = BRANCH_NON_NEGATIVE) -> BetaSolveResult:
    """Find beta_R with gibbs_entropy(h, beta_R) = s_target on the given branch.

    ``basis`` is the eigensystem of h; only its energy levels are used.

    Non-negative branch: the bracket upper edge doubles from 1 until the
    entropy falls below the target; if that never happens before the cap
    1e8 / spread (target below the ground-degeneracy entropy floor), the cap
    is returned with ``saturated`` set. The negative branch runs the same
    search on the mirrored levels -w, since S(beta; w) = S(-beta; -w).
    Raises ``ConstantEntropy`` for h proportional to the identity and
    ``TargetOutOfRange`` for a target outside [0, ln d].
    """
    levels = np.asarray(basis.eigenvalues, dtype=np.float64)[None]
    targets = np.array([float(s_target)])
    error = _row_errors(levels, targets)[0]
    if error is not None:
        raise error
    return _solve_rows(levels, targets, branch)[0]


def solve_beta_series(levels: np.ndarray, entropies: Sequence[float] | np.ndarray,
                      branch: str = BRANCH_NON_NEGATIVE) -> list[BetaSolveResult]:
    """Per-sample entropy matching, all samples at once.

    Row i of the (m, d) ``levels`` holds the ascending energy levels at the
    sample whose entropy is ``entropies[i]``; result i equals
    ``solve_beta`` on that row. Per-sample failures are recorded on the
    result (``error``) instead of aborting the series.
    """
    levels = np.asarray(levels, dtype=np.float64)
    targets = np.asarray(entropies, dtype=np.float64)
    if levels.shape[:1] != targets.shape:
        raise ValueError(f"{len(levels)} level rows for {len(targets)} entropies")
    errors = _row_errors(levels, targets)
    ok = np.array([e is None for e in errors], dtype=bool)
    solved = iter(_solve_rows(levels[ok], targets[ok], branch))
    return [next(solved) if e is None
            else BetaSolveResult(math.nan, math.nan, False, branch, error=str(e))
            for e in errors]

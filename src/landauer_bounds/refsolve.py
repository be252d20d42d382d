"""Solve the entropy-matching condition S(gibbs(beta_R, H)) = S_target.

The Gibbs entropy is strictly decreasing in beta on the non-negative branch
(and increasing on the negative branch) for any H not proportional to the
identity, so bisection on a doubling bracket converges unconditionally; its
derivative -beta Var(E) vanishes at beta = 0 and at saturation, which rules
out Newton-type iterations. Every solve starts from the same bracket, so a
series of solves is just one solve per sample on that sample's energy levels.
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

RESIDUAL_TOL = 1e-10
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


def _entropy_from_levels(w: np.ndarray, beta: float) -> float:
    shift = float(w[0] if beta >= 0 else w[-1])
    x = -beta * (w - shift)
    weights = np.exp(x)
    z = float(weights.sum())
    p = weights / z
    return float(math.log(z) - p @ x)


def gibbs_entropy(h: np.ndarray, beta: float) -> float:
    """von Neumann entropy of the Gibbs state of ``h`` at inverse parameter beta."""
    if not math.isfinite(beta):
        raise ValueError("beta must be finite")
    return _entropy_from_levels(linalg.eigh(h).eigenvalues, beta)


def _validated_levels(basis: EigenSystem) -> tuple[np.ndarray, float]:
    w = basis.eigenvalues
    spread = float(w[-1] - w[0])
    if spread <= 1e-13 * max(1.0, float(np.max(np.abs(w)))):
        raise ConstantEntropy("Hamiltonian proportional to identity: entropy constant")
    return w, spread


def _check_target(s_target: float, dim: int) -> None:
    if not math.isfinite(s_target) or s_target < -1e-12 or s_target > math.log(dim) + 1e-10:
        raise TargetOutOfRange(f"entropy target {s_target!r} outside [0, ln {dim}]")


def _bisect(w: np.ndarray, s_target: float, lo: float, hi: float) -> float:
    """Bisection on [lo, hi] assuming S(lo) >= s_target >= S(hi)."""
    for _ in range(_MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if _entropy_from_levels(w, mid) >= s_target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * (1.0 + abs(hi)):
            break
    return 0.5 * (lo + hi)


def solve_beta(basis: EigenSystem, s_target: float,
               branch: str = BRANCH_NON_NEGATIVE) -> BetaSolveResult:
    """Find beta_R with gibbs_entropy(h, beta_R) = s_target on the given branch.

    ``basis`` is the eigensystem of h; only its energy levels are used.

    Non-negative branch: the bracket upper edge doubles from 1 until the
    entropy falls below the target; if that never happens before the cap
    1e8 / spread (target below the ground-degeneracy entropy floor), the cap
    is returned with ``saturated`` set. The negative branch runs the same
    search on the mirrored levels -w, since S(beta; w) = S(-beta; -w).
    """
    w, spread = _validated_levels(basis)
    _check_target(s_target, len(w))
    cap = _CAP_FACTOR / spread
    if branch == BRANCH_NON_NEGATIVE:
        sign, levels = 1.0, w
    elif branch == BRANCH_NEGATIVE:
        sign, levels = -1.0, -w[::-1]
    else:
        raise ValueError(f"unknown branch {branch!r}")

    s0 = _entropy_from_levels(levels, 0.0)
    if s0 <= s_target:
        return BetaSolveResult(0.0, abs(s0 - s_target), False, branch)
    lo, hi = 0.0, 1.0
    while _entropy_from_levels(levels, hi) >= s_target:
        lo, hi = hi, 2.0 * hi
        if hi > cap:
            res = abs(_entropy_from_levels(levels, cap) - s_target)
            return BetaSolveResult(sign * cap, res, True, branch)
    beta = sign * _bisect(levels, s_target, lo, hi)
    return BetaSolveResult(beta, abs(_entropy_from_levels(w, beta) - s_target), False, branch)


def solve_beta_series(
    bases: Sequence[EigenSystem],
    entropies: Sequence[float],
    branch: str = BRANCH_NON_NEGATIVE,
) -> list[BetaSolveResult]:
    """Per-sample entropy matching: ``solve_beta`` on each (basis, entropy) pair.

    Per-sample failures are recorded on the result (``error``) instead of
    aborting the series.
    """
    results: list[BetaSolveResult] = []
    for basis, s_target in zip(bases, entropies, strict=True):
        try:
            results.append(solve_beta(basis, float(s_target), branch))
        except (ConstantEntropy, TargetOutOfRange) as exc:
            results.append(BetaSolveResult(math.nan, math.nan, False, branch, error=str(exc)))
    return results

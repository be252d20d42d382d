"""Solve the entropy-matching condition S(gibbs(beta_R, H)) = S_target.

The Gibbs entropy is strictly decreasing in beta on the non-negative branch
(and increasing on the negative branch) for any H not proportional to the
identity, so a root found on a doubling bracket is unique. Its derivative
-beta Var(E) vanishes at beta = 0 and at saturation, where a Newton step
would leave the bracket, so the bracket is shrunk by Illinois-modified
regula falsi (Dowell & Jarratt, BIT 11, 168, 1971): secant steps that never
leave the bracket, superlinear where the entropy is smooth, and a midpoint
whenever the secant point falls outside. Every solve starts from the same
bracket, so a series of solves is one solve per sample on that sample's
energy levels. The samples of a series are solved at once: bracket doubling
and the Illinois steps run on an (m, d) array of levels, and each row leaves
the live set at the step where a lone solve of that row would stop, so
``solve_beta`` is the one-row case.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConstantEntropy, TargetOutOfRange

BRANCH_NON_NEGATIVE = "non-negative"
BRANCH_NEGATIVE = "negative"

_MAX_STEPS = 200
_CAP_FACTOR = 1e8


class BetaSolveResult(NamedTuple):
    """Outcome of one entropy-matching solve.

    A named tuple, since a series builds one per sample.
    ``saturated`` means the target lies below the entropy floor reachable on
    the searched branch; ``beta_R`` is then the search cap, not a root.
    Failed solves in a series carry the message in ``error``.
    """

    beta_R: float
    residual: float
    saturated: bool
    error: str | None = None


def _entropy_from_levels(levels: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Gibbs entropy of each column of levels (d, m), levels first in C order so
    that each sum over levels adds whole rows, at its beta (m,).

    Computed as ln z - sum p x on the shifted exponents x = -beta (E - E_ext),
    never as ln Z + beta <E>, which cancels catastrophically near the cap.
    """
    beta = np.asarray(beta, dtype=np.float64)
    x = -beta * (levels - np.where(beta >= 0.0, levels[0], levels[-1]))
    weights = np.exp(x)
    z = weights.sum(axis=0)
    return np.log(z) - np.sum(weights / z * x, axis=0)


def _row_errors(levels: np.ndarray, targets: np.ndarray) -> dict[int, Exception]:
    """Why each (levels, target) row without a solution has none, by row index."""
    dim = levels.shape[-1]
    spread = levels[:, -1] - levels[:, 0]
    constant = spread <= 1e-13 * np.maximum(1.0, np.max(np.abs(levels), axis=-1))
    out_of_range = ~np.isfinite(targets) | (targets < -1e-12) | (targets > math.log(dim) + 1e-10)
    return {i: ConstantEntropy("Hamiltonian proportional to identity: entropy constant")
            if constant[i] else TargetOutOfRange(f"entropy target {float(targets[i])!r}"
                                                 f" outside [0, ln {dim}]")
            for i in np.flatnonzero(constant | out_of_range).tolist()}


def _solve_rows(levels: np.ndarray, targets: np.ndarray,
                branch: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (m,) beta_R, residual and saturated of every row of solvable (m, d)
    levels, each row searched as ``solve_beta`` documents. A row leaves the live
    set at the step where it would stop if solved alone, so its result does not
    depend on the other rows.
    """
    if branch == BRANCH_NON_NEGATIVE:
        sign, search = 1.0, levels
    elif branch == BRANCH_NEGATIVE:
        sign, search = -1.0, -levels[:, ::-1]
    else:
        raise ValueError(f"unknown branch {branch!r}")
    search = search.T.copy()  # levels first, once: the rows are columns below
    m = len(targets)
    cap = _CAP_FACTOR / (levels[:, -1] - levels[:, 0])
    # f = S - target on the bracket edges: f_lo >= 0 > f_hi once bracketed
    f_lo = _entropy_from_levels(search, np.zeros(m)) - targets
    at_zero = f_lo <= 0.0
    saturated = np.zeros(m, dtype=bool)
    lo, hi, f_hi = np.zeros(m), np.ones(m), np.zeros(m)

    live = np.flatnonzero(~at_zero)
    while live.size:
        f = _entropy_from_levels(search[:, live], hi[live]) - targets[live]
        above = f >= 0.0
        f_hi[live[~above]] = f[~above]
        live, f = live[above], f[above]
        lo[live], f_lo[live], hi[live] = hi[live], f, 2.0 * hi[live]
        over = hi[live] > cap[live]
        saturated[live[over]] = True
        live = live[~over]

    # Illinois regula falsi (Dowell & Jarratt 1971) on the live rows, kept
    # compact (a vectorized bisection took 3.06-3.16 ms per 1,501-row series,
    # against 2.90-3.05 ms for these steps): the secant point of the bracket
    # [a, b] replaces the edge of its sign, and when one edge is replaced twice
    # in a row the f of the other is halved. A secant point outside the bracket
    # is replaced by the midpoint, and every point is kept a quarter of the
    # stopping width from the edges, so a bracket whose edge is a root to
    # rounding still closes.
    rows = np.flatnonzero(~at_zero & ~saturated)
    a, b, fa, fb = lo[rows], hi[rows], f_lo[rows], f_hi[rows]
    lev, tgt, last = search[:, rows], targets[rows], np.zeros(rows.size)
    for _ in range(_MAX_STEPS):
        width = 1e-13 * (1.0 + np.abs(b))
        live = b - a > width
        if not live.all():
            lo[rows[~live]], hi[rows[~live]] = a[~live], b[~live]
            rows, a, b, fa, fb, tgt, last, width = (
                v[live] for v in (rows, a, b, fa, fb, tgt, last, width))
            lev = lev[:, live]
        if not rows.size:
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            x = a + (b - a) * (fa / (fa - fb))
        inside = (x >= a) & (x <= b)
        x = np.clip(np.where(inside, x, 0.5 * (a + b)), a + 0.25 * width, b - 0.25 * width)
        f = _entropy_from_levels(lev, x) - tgt
        up = f >= 0.0
        edge = np.where(up, 1.0, -1.0) * inside  # 0 after a midpoint step
        halve = np.where(edge * last > 0.0, 0.5, 1.0)
        a, fa, b, fb = (np.where(up, x, a), np.where(up, f, halve * fa),
                        np.where(up, b, x), np.where(up, halve * fb, f))
        last = edge
    lo[rows], hi[rows] = a, b

    beta = np.where(at_zero, 0.0, sign * np.where(saturated, cap, 0.5 * (lo + hi)))
    return beta, np.abs(_entropy_from_levels(levels.T.copy(), beta) - targets), saturated


def solve_beta(levels: np.ndarray, s_target: float,
               branch: str = BRANCH_NON_NEGATIVE) -> BetaSolveResult:
    """Find beta_R with S(gibbs(beta_R, h)) = s_target on the given branch.

    ``levels`` are the ascending eigenvalues of h.

    Non-negative branch: the bracket upper edge doubles from 1 until the
    entropy falls below the target; if that never happens before the cap
    1e8 / spread (target below the ground-degeneracy entropy floor), the cap
    is returned with ``saturated`` set. Otherwise Illinois steps shrink the
    bracket, at most 200 of them, until it is narrower than 1e-13 (1 + |hi|),
    and its midpoint is returned. The negative branch runs the same
    search on the mirrored levels -w, since S(beta; w) = S(-beta; -w).
    Raises ``ConstantEntropy`` for h proportional to the identity and
    ``TargetOutOfRange`` for a target outside [0, ln d].
    """
    levels = np.asarray(levels, dtype=np.float64)[None]
    targets = np.array([float(s_target)])
    errors = _row_errors(levels, targets)
    if errors:
        raise errors[0]
    return BetaSolveResult(*(column.item() for column in _solve_rows(levels, targets, branch)))


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
    m = len(targets)
    errors = _row_errors(levels, targets)
    ok = np.isin(np.arange(m), list(errors), invert=True)
    beta, residual, saturated = np.full(m, np.nan), np.full(m, np.nan), np.zeros(m, dtype=bool)
    beta[ok], residual[ok], saturated[ok] = _solve_rows(levels[ok], targets[ok], branch)
    results = list(map(BetaSolveResult, beta.tolist(), residual.tolist(), saturated.tolist()))
    for i, error in errors.items():
        results[i] = results[i]._replace(error=str(error))
    return results

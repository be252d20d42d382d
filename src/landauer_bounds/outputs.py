"""The files of a run: the rows of trajectory.csv and bounds.csv, meta.json and
the reductions of a run's blocks that it reads, and the staging that keeps a
failed run from leaving any of them."""

from __future__ import annotations

import contextlib
import json
import math
import os
from pathlib import Path
from typing import TYPE_CHECKING, Any, BinaryIO, Iterator, NamedTuple

import numpy as np

from . import numtext, qstate, thermo
from .errors import ConfigError
from .lindblad import Trajectory, density_matrices, upper_triangle

if TYPE_CHECKING:
    from .cli import ScenarioConfig

VERDICT_TOL = 1e-6


class Block(NamedTuple):
    """One block of samples of a run, evaluated, and the run's origin."""

    trajectory: Trajectory
    bounds: thermo.Bounds
    nlp: thermo.NlpComparison | None
    origin: thermo.Origin


def _verdicts(bounds: thermo.Bounds, nlp: thermo.NlpComparison | None,
              flipped: bool) -> dict[str, dict[str, Any]]:
    """Worst-case slack per inequality; holds when slack >= -1e-6. A partial
    inequality is checked where its slack is not NaN; elsewhere NaN fails."""
    verdicts: dict[str, dict[str, Any]] = {}

    def add(name: str, slacks: np.ndarray, partial: bool = False) -> None:
        if partial:
            slacks = slacks[~np.isnan(slacks)]
        if slacks.size:
            worst = float(slacks[np.argmin(slacks)])
            verdicts[name] = {"worst_slack": worst, "holds": worst >= -VERDICT_TOL}

    add("gap_nonneg", bounds.gap, partial=True)
    add("gap_identity", -np.abs(bounds.gap - bounds.D_inst), partial=True)
    if flipped:
        add("heat_lower_flipped", bounds.Q - bounds.upper, partial=True)
    else:
        add("heat_upper", bounds.upper - bounds.Q, partial=True)
    add("lp_lower", bounds.Q - bounds.lp_lower, partial=True)
    add("coherence_split", -np.abs(bounds.dS - (bounds.dS_diag - bounds.dCoh)))
    if nlp is not None:
        add("nlp_S23", nlp.slack_S23)
        add("nlp_S25", nlp.slack_S25, partial=True)
    return verdicts


class Summary:
    """What meta.json reads of a run of m samples, reduced block by block: sample
    0's flags, solve and energy, each verdict's worst slack so far (the first of
    equal ones, a NaN before any number, as ``np.argmin`` over the whole run picks
    it), the largest energy-balance error, the smallest eigenvalue, the status
    counts, the m trace drifts (summed once, in the end), the last finite
    beta_R(t) and the last state. The drifts are allocated before the first
    block, so that no block leaves an allocation of its own among the next
    block's transients."""

    def __init__(self, m: int) -> None:
        self.verdicts: dict[str, dict[str, Any]] = {}
        self.balance, self.min_eigenvalue = -math.inf, math.inf
        self.saturated = self.failed = self.count = 0
        self.drifts = np.empty(m)
        self.beta_final: float | None = None

    def add(self, block: Block) -> slice:
        """Reduce a block into the summary; return the slice of its samples."""
        traj, bounds = block.trajectory, block.bounds
        rows = slice(self.count, self.count + len(traj.times))
        if not self.count:  # the block of sample 0
            self.first, self.e_s0 = bounds.flags[0], bounds.E_S[0]
            self.reference = block.origin.reference
        self.count = rows.stop
        self.end = traj.full_coordinates(slice(-1, None))[0]  # the last state so far
        self.dt, self.n_steps, self.max_defect = traj.dt, traj.n_steps, traj.max_step_trace_drift
        self.drifts[rows] = traj.trace_drifts
        self.balance = np.maximum(self.balance, np.max(np.abs(
            (bounds.E_S - self.e_s0) - (traj.work - traj.heat))))
        self.min_eigenvalue = np.minimum(self.min_eigenvalue, np.min(traj.min_eigenvalues))
        self.saturated += sum("saturated" in flags for flags in bounds.flags)
        self.failed += sum("beta_solve_failed" in flags for flags in bounds.flags)
        flipped = "direction_flipped" in self.first
        for name, verdict in _verdicts(bounds, block.nlp, flipped).items():
            worst, new = self.verdicts.get(name, {}).get("worst_slack"), verdict["worst_slack"]
            if worst is None or new < worst or (math.isnan(new) and not math.isnan(worst)):
                self.verdicts[name] = verdict
        beta_t = bounds.beta_R_t[~np.isnan(bounds.beta_R_t)]
        if beta_t.size:
            self.beta_final = float(beta_t[-1])
        return rows

    def meta(self, config: ScenarioConfig) -> dict[str, Any]:
        first, b0 = self.first, self.reference
        flipped, degenerate = "direction_flipped" in first, "degenerate_spectrum" in first
        meta: dict[str, Any] = {
            "scenario": config.name,
            "config": {
                "model": config.model_name,
                "model_params": config.model_params,
                "initial_state": config.initial_state,
                "integrator": {"dt": config.dt, "t_end": config.t_end,
                               "n_samples": config.n_samples},
                "bath_T": config.bath_T,
                "beta_branch": config.beta_branch,
            },
            "integrator": {
                "dt_effective": self.dt,
                "n_steps": self.n_steps,
                "method": "fixed-step classical RK4 with in-stage heat/work accumulation",
            },
            "reference": {
                "beta_R0": b0.beta_R,
                "residual": b0.residual,
                "saturated": "saturated" in first,
                "branch": config.beta_branch,
                "direction_flipped": flipped,
            },
            "diagnostics": {
                "max_step_trace_drift": self.max_defect,
                "cumulative_trace_drift": float(np.sum(self.drifts)),
                "min_eigenvalue": float(self.min_eigenvalue),
                "max_energy_balance_error": float(self.balance),
                "saturated_samples": self.saturated,
                "failed_beta_solves": self.failed,
            },
            "flags": {
                "degenerate_hamiltonian_spectrum": degenerate,
                "dephasing_note": (
                    "degenerate levels are dephased as spectral blocks; see qstate"
                    if degenerate else None
                ),
            },
            "notes": {
                "units": "hbar = k_B = 1; energies and rates share one frequency unit,"
                         " times are its inverse",
            },
            "verdicts": self.verdicts,
        }
        if config.bell is not None:
            meta["bell_fidelity_end"] = qstate.fidelity_pure(density_matrices(self.end),
                                                             config.bell)
        if config.model.driven:
            meta["reference"]["beta_R_final"] = self.beta_final
        return meta


def bounds_rows(table: thermo.Bounds, columns: list[str]) -> Iterator[bytes]:
    """The bounds.csv rows of a table, spelled by ``numtext.csv_rows``. NaN is
    an empty cell in ``thermo.OPTIONAL_COLUMNS`` and ``nan`` elsewhere."""
    blank = [c in thermo.OPTIONAL_COLUMNS for c in columns[:-1]]
    block = np.column_stack([table[c] for c in columns[:-1]])
    flags = np.array([";".join(f) for f in table.flags], dtype=bytes)
    return numtext.csv_rows(block, blank, flags)


def trajectory_header(d: int) -> bytes:
    upper, strict = np.triu_indices(d), np.triu_indices(d, 1)
    header = ["t", "Q", "W", "min_eig"]
    header += [f"rho_{i}_{j}_re" for i, j in zip(*upper)]
    header += [f"rho_{i}_{j}_im" for i, j in zip(*strict)]
    return (",".join(header) + "\r\n").encode()


def trajectory_rows(traj: Trajectory) -> Iterator[bytes]:
    """The trajectory.csv rows of a trajectory, spelled by ``numtext.csv_rows``; the
    rho columns are ``lindblad.upper_triangle`` of the full-width coordinates, the
    bytes of ``density_matrices`` without its complex stacks (+0.2 MiB on pump's peak).
    The columns are formed for one chunk of rows at a time, as the text is read."""
    rows = numtext.chunk_rows(4 + traj.spectra.shape[-1] ** 2)
    for start in range(0, len(traj.times), rows):
        chunk = slice(start, start + rows)
        yield from numtext.csv_rows(np.column_stack([
            traj.times[chunk], traj.heat[chunk], traj.work[chunk],
            traj.min_eigenvalues[chunk], upper_triangle(traj.full_coordinates(chunk))]))


def csv_header(columns: list[str]) -> bytes:
    return (",".join(columns) + "\r\n").encode()


def _json_safe(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def meta_json(meta: dict[str, Any]) -> bytes:
    return (json.dumps(_json_safe(meta), indent=2, sort_keys=True) + "\n").encode()


@contextlib.contextmanager
def staged(out: Path, *names: str) -> Iterator[list[BinaryIO]]:
    """The files out/<name>, open for writing under temporary names and renamed into
    place when the block ends; an error removes them, and the directories made for
    them, so a run that fails leaves none of its files. An out/<name> or temporary name
    that is a directory is a ``ConfigError`` before anything is made or removed, and so
    is an out that cannot be made. No other code makes a directory or writes a file."""
    made = [path for path in (out, *out.parents) if not path.exists()]
    partial = [out / f"{name}.partial" for name in names]
    for path in [out / name for name in names] + partial:
        if path.is_dir():
            raise ConfigError(f"cannot write output file {path}: Is a directory")
    try:
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make output directory {out}: {exc.strerror}") from exc
        with contextlib.ExitStack() as stack:
            yield [stack.enter_context(open(path, "wb")) for path in partial]
        for path, name in zip(partial, names):
            os.replace(path, out / name)
    except BaseException:
        for remove in [path.unlink for path in partial] + [path.rmdir for path in made]:
            with contextlib.suppress(OSError):  # the files, then the directories deepest first
                remove()
        raise

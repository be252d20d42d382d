"""Output check applied to every timed run.

A run passes when
  * the CLI exited 0 and every verdict in every meta.json holds;
  * no entropy-matching solve failed;
  * the first law holds to MAX_ENERGY_BALANCE_ERROR and every sampled state
    is positive to MIN_EIGENVALUE;
  * every expected output file exists and bounds.csv has one row per sample;
  * for seed 0 at paper size, the final-sample Q, W, S and beta_R (and the
    Bell fidelity for ``pump``) match REFERENCE, the values the program gave
    when the benchmark was written, within REL_TOL * |value| + ABS_TOL.

The tolerance admits the ~1e-12 changes that reordered floating-point sums
cause in these runs, and rejects a wrong RK4 step: building the third stage
from k1 instead of k2 moves the final erasure S by 1.3e-5 and beta_R by
1.5e-6, relative, and fails the check. A finer step does not: RK4 has
converged here, and 20k against 1.5k erasure steps changes Q by 7e-11.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Any

MAX_ENERGY_BALANCE_ERROR = 1e-8
MIN_EIGENVALUE = -1e-9
REL_TOL = 1e-8
ABS_TOL = 1e-9

# Final-sample values at seed 0, paper size, keyed by workload and then by
# scenario (sweep entries by their name).
REFERENCE: dict[str, dict[str, dict[str, float]]] = {
    "pump": {
        "pump": {"Q": -0.00783775266587676, "W": 0.0, "S": 1.00952846494969,
                 "beta_R": 30.00000000000091, "bell_fidelity": 0.691855443295448},
    },
    "erase": {
        "erase": {"Q": 1.44608742053562, "W": -3.51122692215787,
                  "S": 0.000775688134345427, "beta_R": 0.951443921544515},
    },
    "erase-sweep": {
        "tau=5": {"Q": 2.02658813871452, "W": -2.89588151618249,
                  "S": 0.0194055055115257, "beta_R": 0.586618333327869},
        "tau=10": {"Q": 1.44608742043773, "W": -3.51122692231552,
                   "S": 0.000775688174930879, "beta_R": 0.951443915761907},
        "tau=20": {"Q": 1.07344081441078, "W": -3.88600458733324,
                   "S": 0.00051441160920752, "beta_R": 0.99673662051822},
    },
}


def _last_row(path: Path) -> dict[str, str]:
    row: dict[str, str] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):  # streamed: the checker must stay small
            pass
    return row


def _count_rows(path: Path) -> int:
    with open(path, newline="") as fh:
        return sum(1 for _ in fh) - 1


def final_values(run_dir: Path) -> dict[str, float]:
    """Final-sample Q, W, S, beta_R (and Bell fidelity) of one scenario run."""
    meta = json.loads((run_dir / "meta.json").read_text())
    last = _last_row(run_dir / "bounds.csv")
    out = {"Q": float(last["Q"]), "S": float(last["S"])}
    if "W" in last:  # driven schema
        out["W"] = float(last["W"])
        out["beta_R"] = float(last["beta_R_t"])
    else:
        out["W"] = float(_last_row(run_dir / "trajectory.csv")["W"])
        out["beta_R"] = float(meta["reference"]["beta_R0"])
    if "bell_fidelity_end" in meta:
        out["bell_fidelity"] = float(meta["bell_fidelity_end"])
    return out


def _check_meta(meta: dict[str, Any], where: str) -> list[str]:
    problems = [f"{where}: verdict {name} fails (worst slack {v['worst_slack']})"
                for name, v in meta["verdicts"].items() if not v["holds"]]
    diag = meta["diagnostics"]
    if diag["failed_beta_solves"] != 0:
        problems.append(f"{where}: {diag['failed_beta_solves']} failed beta solves")
    if not diag["max_energy_balance_error"] <= MAX_ENERGY_BALANCE_ERROR:
        problems.append(f"{where}: energy balance error {diag['max_energy_balance_error']}")
    if not diag["min_eigenvalue"] >= MIN_EIGENVALUE:
        problems.append(f"{where}: min eigenvalue {diag['min_eigenvalue']}")
    return problems


def _check_scenario_dir(run_dir: Path, n_samples: int, where: str) -> list[str]:
    missing = [name for name in ("trajectory.csv", "bounds.csv", "meta.json", "bounds.svg")
               if not (run_dir / name).is_file()]
    if missing:
        return [f"{where}: missing {', '.join(missing)}"]
    problems = _check_meta(json.loads((run_dir / "meta.json").read_text()), where)
    for name in ("trajectory.csv", "bounds.csv"):
        rows = _count_rows(run_dir / name)
        if rows != n_samples:
            problems.append(f"{where}: {name} has {rows} rows, expected {n_samples}")
    return problems


def compare_final(values: dict[str, float], expected: dict[str, float],
                  where: str) -> list[str]:
    """Problems where a final value is off its reference by more than the tolerance."""
    problems = []
    for key, want in expected.items():
        got = values.get(key, math.nan)
        if not abs(got - want) <= REL_TOL * abs(want) + ABS_TOL:
            problems.append(f"{where}: final {key} = {got!r}, reference {want!r}")
    return problems


def check_outputs(workload: str, config: dict[str, Any], out: Path, exit_code: int,
                  compare_reference: bool) -> list[str]:
    """Problems found in one run's outputs; an empty list means the run passed."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    n_samples = int(config["integrator"]["n_samples"])
    try:
        if not config.get("sweep"):
            dirs = {workload: out}
        else:
            top = out / "meta.json"
            if not (out / "sweep.svg").is_file() or not top.is_file():
                return problems + ["missing sweep.svg or sweep meta.json"]
            for entry in json.loads(top.read_text())["sweep"]:
                problems += _check_meta(entry, f"sweep summary {entry['name']}")
            dirs = {e["name"]: out / e["name"] for e in config["sweep"]}
        for name, run_dir in dirs.items():
            problems += _check_scenario_dir(run_dir, n_samples, name)
        if compare_reference and not problems:
            for name, run_dir in dirs.items():
                problems += compare_final(final_values(run_dir), REFERENCE[workload][name], name)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable outputs: {type(exc).__name__}: {exc}")
    return problems

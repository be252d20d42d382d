"""Config-driven scenario runner.

``landauer-bounds run --scenario fig1 --out DIR`` propagates a built-in
scenario, evaluates every inequality, and writes

  trajectory.csv   sampled states (upper triangle) with Q, W, diagnostics
  bounds.csv       per-sample bound chain (column names depend on driven/undriven)
  meta.json        parameters, solver residuals, flags, inequality verdicts
  *.svg            optional charts (``--plots``)

Exit codes: 0 all inequalities hold within tolerance, 2 violation beyond
tolerance, 1 runtime error, 3 configuration error. Identical configuration
produces byte-identical outputs.
"""

from __future__ import annotations

import argparse
import copy
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from . import linalg, lindblad, models, plotting, qstate, refsolve, thermo
from .errors import (
    ConfigError,
    LandauerBoundsError,
    NonHermitianInput,
    UnnormalizedVector,
)
from .lindblad import JumpChannel, LindbladModel, Trajectory, protocol_values, sample_grid
from .lindblad import propagation as propagate  # one run, a block of samples at a time
from .outputs import (Block, Summary, bounds_rows, csv_header, meta_json, staged,
                      trajectory_header, trajectory_rows)
from .plotting import DRAWN_COLUMNS, DRIVEN_COLUMNS, UNDRIVEN_COLUMNS
from .refsolve import BRANCH_NEGATIVE, BRANCH_NON_NEGATIVE

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_VIOLATION = 2
EXIT_CONFIG = 3

# The keys each JSON object may hold; ``_read`` refuses any other by name.
CONFIG_KEYS = frozenset({"name", "model", "model_params", "initial_state", "integrator",
                         "bath_T", "beta_branch", "sweep", "custom_model_file"})
SWEEP_KEYS = frozenset({"name", "overrides"})
INTEGRATOR_KEYS = frozenset({"dt", "t_end", "n_samples"})
INITIAL_STATE_KEYS = {"gibbs": frozenset({"kind", "beta"}), "pure": frozenset({"kind", "vector"}),
                      "sorted_ascending_diagonal": frozenset({"kind", "beta"}),
                      "maximally_mixed": frozenset({"kind"})}
_PARAMS = {"rydberg": models.RydbergParams, "erasure": models.ErasureParams}
MODEL_PARAMS_KEYS = {"custom": frozenset(), **{
    name: frozenset(f.name for f in fields(params)) for name, params in _PARAMS.items()}}
MODEL_FILE_KEYS = frozenset({"dim", "hamiltonian", "channels"})
CHANNEL_KEYS = frozenset({"rate", "operator"})
MATRIX_KEYS = frozenset({"re", "im"})
# what ``_read`` says a JSON value of each kind must be
_KINDS = {float: "a finite number", int: "an integer", str: "a string", dict: "an object",
          list: "a list"}
# The files a sweep writes into its out, around its entries' subdirectories.
_SWEEP_FILES = ("meta.json", "sweep.svg")

_FIG2: dict[str, Any] = {
    "model": "erasure",
    "model_params": {"eps0": 0.4, "eps_tau": 10.0, "tau": 10.0,
                     "gamma": 0.2, "bath_beta": 1.0},
    "initial_state": {"kind": "gibbs", "beta": 1.0},
    "integrator": {"dt": 10.0 / 20000, "t_end": 10.0, "n_samples": 401},
    "bath_T": 1.0,
    "beta_branch": BRANCH_NON_NEGATIVE,
}

_SCENARIOS: dict[str, dict[str, Any]] = {
    "fig1": {
        "model": "rydberg",
        "model_params": {"omega2": 0.02, "omega": 0.01, "gamma": 0.03},
        "initial_state": {"kind": "gibbs", "beta": 30.0},
        # t_end covers ~4 relaxation e-folds of the slowest decaying mode
        # (Liouvillian gap ~ 1.9e-3); all bound curves are saturated there.
        "integrator": {"dt": 0.01, "t_end": 2000.0, "n_samples": 401},
        "bath_T": None,
        "beta_branch": BRANCH_NON_NEGATIVE,
    },
    "fig2": _FIG2,
    "figS1": {**_FIG2, "sweep": [
        {
            "name": f"tau={tau:g}",
            "overrides": {
                "model_params": {"tau": tau},
                "integrator": {"dt": tau / 20000, "t_end": tau},
            },
        }
        for tau in (5.0, 10.0, 20.0)
    ]},
}


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """One validated run (see README for the JSON schema): the model built from
    ``model_name`` and ``model_params``, its start ``rho0`` with its reference solve
    ``beta_R0`` and, for the Rydberg pump, the Bell state, with meta.json's settings."""

    name: str
    model_name: str
    model_params: dict[str, float]
    initial_state: dict[str, Any]
    dt: float
    t_end: float
    n_samples: int
    bath_T: float | None
    beta_branch: str
    out_dir: Path
    plots: bool
    model: LindbladModel
    rho0: np.ndarray
    beta_R0: refsolve.BetaSolveResult
    bell: np.ndarray | None

    @property
    def kind(self) -> str:
        return "driven" if self.model.driven else "undriven"


@dataclass(frozen=True, eq=False)
class Sweep:
    """Validated sweep: one run per entry, each writing into out_dir/<entry name>."""

    name: str
    out_dir: Path
    plots: bool
    runs: tuple[tuple[str, ScenarioConfig], ...]


def _read(value: Any, kind: type | frozenset[str], what: str) -> Any:
    """``value`` as a ``kind``: a finite JSON number (not bool) as a float, an integral one
    as an int, a str, dict or list as it is, and a set of keys as an object with no other
    key; else ``ConfigError`` naming ``what`` (so NaN, Infinity, 1e400 and None fail)."""
    if isinstance(kind, frozenset):
        unknown = [key for key in _read(value, dict, what) if key not in kind]
        if unknown:
            raise ConfigError(f"{what} has unknown key {unknown[0]!r},"
                              f" allowed: {', '.join(sorted(kind)) or 'none'}")
        return value
    number = type(value) in (int, float) and abs(value) <= sys.float_info.max
    if kind is float and number:
        return float(value)
    if kind is int and number and float(value).is_integer():
        return int(value)
    if kind in (str, dict, list) and type(value) is kind:
        return value
    raise ConfigError(f"{what} must be {_KINDS[kind]}, got {value!r}")


def _sweep_entries(sweep: list[Any]) -> list[tuple[str, dict[str, Any]]]:
    """(name, overrides) of each sweep entry; a name (default entry{i}) is an
    output subdirectory, so it must be one path component, unique and not the
    name of a file the sweep writes, nor that file's temporary name."""
    entries: dict[str, dict[str, Any]] = {}
    for i, entry in enumerate(sweep):
        entry = _read(entry, SWEEP_KEYS, f"sweep entry {i}")
        name = _read(entry.get("name", f"entry{i}"), str, f"sweep entry {i} name")
        if name in ("", ".", "..") or "/" in name or "\0" in name:
            raise ConfigError(f"sweep entry name {name!r} is not a single path component")
        if name in entries:
            raise ConfigError(f"sweep entry name {name!r} is repeated")
        if name.removesuffix(".partial") in _SWEEP_FILES:
            raise ConfigError(f"sweep entry name {name!r} is a file of the sweep itself")
        entries[name] = _read(entry.get("overrides", {}), dict, f"sweep entry {i} overrides")
        if "sweep" in entries[name]:
            raise ConfigError("sweep entry overrides may not contain a sweep")
    return list(entries.items())


def _merge(base: dict[str, Any], overrides: dict[str, Any]) -> dict[str, Any]:
    """``base`` with ``overrides`` merged in object by object; an ``initial_state``
    that names a ``kind`` is a new start and replaces the base's whole."""
    out = copy.deepcopy(base)
    for key, val in overrides.items():
        if (isinstance(val, dict) and isinstance(out.get(key), dict)
                and not (key == "initial_state" and "kind" in val)):
            out[key] = _merge(out[key], val)
        else:
            out[key] = val
    return out


def build_config(raw: dict[str, Any], name: str, out_dir: str | Path, plots: bool,
                 integrator: dict[str, Any] | None = None) -> ScenarioConfig | Sweep:
    """Validate a raw configuration: one run, or with a non-empty ``sweep`` a
    ``Sweep`` of runs, each the configuration merged with an entry's overrides.
    The ``integrator`` values (``--dt``, ``--t-end``, ``--samples``) replace
    the configured ones, also after a sweep entry's overrides.

    A run's model and initial state are built here, and beta_R(0) is checked,
    so a bad sweep entry stops the sweep before any entry has written an output.
    """
    raw = _read(raw, CONFIG_KEYS, "configuration")
    if raw.get("sweep") is not None and _read(raw["sweep"], list, "sweep"):
        base = {k: v for k, v in raw.items() if k != "sweep"}
        return Sweep(name, Path(out_dir), plots, tuple(
            (entry, build_config(_merge(base, overrides), f"{name}/{entry}",
                                 Path(out_dir) / entry, plots, integrator))
            for entry, overrides in _sweep_entries(raw["sweep"])))
    integ = {**_read(raw.get("integrator", {}), INTEGRATOR_KEYS, "integrator"),
             **(integrator or {})}
    dt = _read(integ.get("dt"), float, "dt")
    t_end = _read(integ.get("t_end"), float, "t_end")
    n_samples = _read(integ.get("n_samples"), int, "n_samples")
    try:
        sample_grid(t_end, dt, n_samples)
    except ValueError as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc
    model_name = _read(raw.get("model"), str, "model")
    if model_name not in MODEL_PARAMS_KEYS:
        raise ConfigError(f"unknown model {model_name!r}")
    if model_name != "custom" and raw.get("custom_model_file") is not None:
        raise ConfigError(f"custom_model_file is read only for model 'custom',"
                          f" not {model_name!r}")
    branch = _read(raw.get("beta_branch", BRANCH_NON_NEGATIVE), str, "beta_branch")
    if branch not in (BRANCH_NON_NEGATIVE, BRANCH_NEGATIVE):
        raise ConfigError(f"unknown beta_branch {branch!r}")
    bath = None if raw.get("bath_T") is None else _read(raw["bath_T"], float, "bath_T")
    if bath is not None and bath <= 0:
        raise ConfigError("bath_T must be positive when set")
    if bath is not None and not math.isfinite(1.0 / bath):
        raise ConfigError(f"bath_T {bath!r} is too small: its inverse overflows")
    init = _read(raw.get("initial_state"), dict, "initial_state")
    params = {k: _read(v, float, f"model_params {k}") for k, v in _read(
        raw.get("model_params", {}), MODEL_PARAMS_KEYS[model_name], "model_params").items()}
    model, bell = _build_model(model_name, params, raw.get("custom_model_file"))
    h0 = protocol_values(model.hamiltonian_protocol, np.zeros(1), model.dim, "Hamiltonian")[0]
    rho0 = _build_initial_state(init, model.dim, h0)
    # beta_R(0) enters every sample, so a start without one is refused before
    # propagating. A driven start must not saturate it; an undriven run may start
    # pure. Every block is bounded from this solve, made on the levels of H(0).
    b0 = refsolve.solve_beta_series(linalg.eigh(h0[None])[0],
                                    [qstate.von_neumann_entropy(rho0)], branch)[0]
    if b0.error is not None:
        raise ConfigError(f"no reference temperature beta_R(0) for H(0): {b0.error}")
    if model.driven and b0.saturated:
        raise ConfigError(f"initial_state of kind {init['kind']!r} saturates beta_R(0):"
                          " S(rho0) is at the Gibbs entropy floor of H(0), and driven"
                          " models need S(rho0) > 0")
    return ScenarioConfig(name=name, model_name=model_name, model_params=params,
                          initial_state=init, dt=dt, t_end=t_end, n_samples=n_samples,
                          bath_T=bath, beta_branch=branch, out_dir=Path(out_dir), plots=plots,
                          model=model, rho0=rho0, beta_R0=b0, bell=bell)


def load_custom_model(path: str | Path) -> LindbladModel:
    """Undriven model from a JSON file {"dim": d, "hamiltonian": matrix, "channels":
    [{"rate": g, "operator": matrix}]}, each matrix read by ``_matrix_from_json``.
    ``ConfigError`` names the file when it cannot be read, breaks that schema or
    has a non-Hermitian Hamiltonian."""
    try:
        spec = _read(json.loads(Path(path).read_text()), MODEL_FILE_KEYS, "the file")
        dim = _read(spec.get("dim"), int, "dim")
        if dim < 1:
            raise ConfigError(f"dim must be at least 1, got {dim}")
        h = _matrix_from_json(spec.get("hamiltonian"), dim, "hamiltonian")
        channels = []
        for i, ch in enumerate(_read(spec.get("channels", []), list, "channels")):
            ch = _read(ch, CHANNEL_KEYS, f"channel {i}")
            channels.append(JumpChannel.constant(
                _read(ch.get("rate"), float, f"channel {i} rate"),
                _matrix_from_json(ch.get("operator"), dim, f"channel {i} operator")))
        linalg.require_hermitian(h)
    except NonHermitianInput as exc:
        raise ConfigError(f"custom model file {path}: Hamiltonian {exc}") from exc
    except (ConfigError, OSError, ValueError) as exc:
        raise ConfigError(f"custom model file {path}: {exc}") from exc
    return LindbladModel(dim=dim, hamiltonian_protocol=lambda t: h, channels=tuple(channels))


def _matrix_from_json(obj: Any, dim: int, what: str) -> np.ndarray:
    """The complex matrix of {"re": rows, "im": rows}, each part d lists of d numbers."""
    obj = _read(obj, MATRIX_KEYS, what)
    parts = []
    for part in ("re", "im"):  # "re" is required and bounds d; a missing "im" is zeros
        name = f"{what} {part}"
        value = obj.get(part) if part == "re" or part in obj else [[0.0] * dim] * dim
        rows = [_read(row, list, f"{name} row {i}")
                for i, row in enumerate(_read(value, list, name))]
        if len(rows) != dim or any(len(row) != dim for row in rows):
            raise ConfigError(f"{name} must be {dim} rows of {dim} numbers")
        parts.append([[_read(x, float, f"{name} entry ({i}, {j})") for j, x in enumerate(row)]
                      for i, row in enumerate(rows)])
    return np.array(parts[0]) + 1j * np.array(parts[1])


@dataclass(frozen=True, eq=False)
class PipelineResult:
    """Everything a single scenario run produced, before serialization: the whole
    run's columns."""

    config: ScenarioConfig
    trajectory: Trajectory
    bounds: thermo.Bounds
    nlp: thermo.NlpComparison | None
    meta: dict[str, Any]


def _build_model(name: str, params: dict[str, float],
                 custom_model_file: Any) -> tuple[LindbladModel, np.ndarray | None]:
    if name == "custom":
        return load_custom_model(_read(custom_model_file, str, "custom_model_file")), None
    try:
        typed = _PARAMS[name](**params)
    except ValueError as exc:
        raise ConfigError(f"invalid model_params for {name!r}: {exc}") from exc
    if name == "rydberg":
        return models.build_rydberg(typed)
    return models.build_erasure(typed), None


def _build_initial_state(init: dict[str, Any], dim: int, h0: np.ndarray) -> np.ndarray:
    """The initial state of a JSON object whose kind and keys are checked and
    values read here; a missing value is ``models.initial_state``'s to refuse."""
    kind = _read(init.get("kind"), str, "initial_state kind")
    if kind not in INITIAL_STATE_KEYS:
        raise ConfigError(f"unknown initial_state kind {kind!r}")
    _read(init, INITIAL_STATE_KEYS[kind], f"initial_state of kind {kind!r}")
    beta, vector = init.get("beta"), init.get("vector")
    try:
        if beta is not None:
            beta = _read(beta, float, "initial_state beta")
        if vector is not None:  # a pair that is not [re, im] fails to unpack
            pairs = (_read(pair, list, "pure vector entry")
                     for pair in _read(vector, list, "pure vector"))
            vector = np.array([complex(_read(re, float, "pure vector entry"),
                                       _read(im, float, "pure vector entry")) for re, im in pairs])
            if vector.shape != (dim,):
                raise ConfigError(f"pure initial state vector has {len(vector)} entries, "
                                  f"the model has dimension {dim}")
        return models.initial_state(kind, h0, beta=beta, vector=vector)
    except (ValueError, UnnormalizedVector) as exc:
        raise ConfigError(f"invalid initial_state of kind {kind!r}: {exc}") from exc


def _evaluate(config: ScenarioConfig, origin: thermo.Origin | None, traj: Trajectory,
              states: np.ndarray | None) -> Block:
    """One propagated block of samples, evaluated, solved and bounded from the run's
    ``origin``, or as the block of sample 0, with ``config.beta_R0``, when there is
    none yet."""
    model = config.model
    samples = thermo.evaluate_samples(traj, model, states)
    origin = origin or thermo.Origin.of(samples, config.beta_R0)
    if model.driven:
        series = refsolve.solve_beta_series(samples.levels, samples.S, config.beta_branch)
        bounds = thermo.driven_bounds(traj, model, samples, series, config.bath_T, origin)
    else:
        bounds = thermo.undriven_bounds(traj, model, samples, config.beta_R0, config.bath_T,
                                        origin)
    nlp = None
    if config.bath_T is not None:
        nlp = thermo.nlp_comparison(traj, model, samples, 1.0 / config.bath_T, origin)
    return Block(traj, bounds, nlp, origin)


def _blocks(config: ScenarioConfig) -> Iterator[Block]:
    """The run of ``config``, one ``lindblad.SAMPLE_BLOCK`` of samples at a time: a
    block is propagated, evaluated, solved and bounded when it is read. Between
    blocks only the propagation's carry and the run's origin (sample 0) persist."""
    blocks = iter(propagate(config.model, config.rho0, config.t_end, config.dt,
                            config.n_samples))
    first = _evaluate(config, None, *next(blocks))
    origin = first.origin
    yield first
    del first  # the next block is propagated without this one
    # starmap holds no block between two reads, and neither does yield from; a for
    # loop would hold each block while it is written (pump's peak RSS 34.71 -> 34.87 MiB)
    yield from itertools.starmap(functools.partial(_evaluate, config, origin), blocks)


def run_pipeline(config: ScenarioConfig) -> PipelineResult:
    """Propagate, solve references, and evaluate bounds for one run built by
    ``build_config``, the whole run evaluated as one block."""
    traj = lindblad.propagate(config.model, config.rho0, config.t_end, config.dt,
                              config.n_samples)
    summary, block = Summary(config.n_samples), _evaluate(config, None, traj, None)
    summary.add(block)
    return PipelineResult(config, traj, block.bounds, block.nlp, summary.meta(config))


def write_outputs(config: ScenarioConfig) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
    """Run ``config`` into its out_dir: trajectory.csv and bounds.csv a block at a
    time, each block before the next is propagated, then meta.json and, with plots,
    bounds.svg, all staged together. Returns the meta and the bound columns the chart
    draws (none without plots), the only per-sample columns a run keeps."""
    columns = UNDRIVEN_COLUMNS if config.kind == "undriven" else DRIVEN_COLUMNS
    drawn = {c: np.empty(config.n_samples) for c in DRAWN_COLUMNS[config.kind] if config.plots}
    summary = Summary(config.n_samples)
    names = ("trajectory.csv", "bounds.csv", "meta.json") + ("bounds.svg",) * config.plots
    with staged(config.out_dir, *names) as (trajectory_csv, bounds_csv, meta_file, *svg):
        trajectory_csv.write(trajectory_header(config.model.dim))
        bounds_csv.write(csv_header(columns))
        for block in _blocks(config):
            rows = summary.add(block)
            trajectory_csv.writelines(trajectory_rows(block.trajectory))
            bounds_csv.writelines(bounds_rows(block.bounds, columns))
            for name, column in drawn.items():
                column[rows] = block.bounds[name]
            del block  # the next block is propagated without this one
        meta = summary.meta(config)
        meta_file.write(meta_json(meta))
        for file in svg:
            file.write(plotting.emit_plots(config.kind, drawn,
                                           meta["reference"]["beta_R0"]).encode())
    return meta, drawn


def _exit_code(meta: dict[str, Any]) -> int:
    verdicts = meta.get("verdicts", {})
    return EXIT_OK if all(v["holds"] for v in verdicts.values()) else EXIT_VIOLATION


def run_scenario(config: ScenarioConfig | Sweep) -> int:
    """Execute one run, or each run of a sweep inside the staging of its own files."""
    if isinstance(config, ScenarioConfig):
        return _exit_code(write_outputs(config)[0])

    entries = []  # per finished entry: its meta and the bound columns the sweep chart draws
    with staged(config.out_dir, *_SWEEP_FILES[:1 + config.plots]) as (meta_file, *svg):
        for name, run in config.runs:
            meta, drawn = write_outputs(run)
            entries.append((name, {c: drawn[c] for c in plotting.SWEEP_COLUMNS if c in drawn},
                            meta))
            del drawn  # the next entry runs without this one's other drawn columns
        meta_file.write(meta_json({
            "scenario": config.name,
            "sweep": [
                {"name": name, "verdicts": meta["verdicts"],
                 "reference": meta["reference"], "diagnostics": meta["diagnostics"]}
                for name, _, meta in entries
            ],
        }))
        for file in svg:
            file.write(plotting.render(plotting.sweep_panels(
                [(name, columns, meta["reference"]["beta_R0"])
                 for name, columns, meta in entries])).encode())
    return max(_exit_code(meta) for _, _, meta in entries)


def scenario_defaults(name: str) -> dict[str, Any]:
    if name in _SCENARIOS:
        return copy.deepcopy(_SCENARIOS[name])
    raise ConfigError(f"unknown scenario {name!r}")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="landauer-bounds",
        description="Simulate open-system scenarios and verify entropy-energy heat bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a scenario and emit CSV/JSON/SVG outputs")
    run.add_argument("--scenario", choices=list(_SCENARIOS),
                     help="built-in scenario with its default parameters")
    run.add_argument("--config", help="path to a scenario configuration JSON file")
    run.add_argument("--out", help="output directory (default: $LANDAUER_OUT or ./landauer-out)")
    run.add_argument("--plots", action="store_true", help="also write SVG charts")
    run.add_argument("--dt", type=float, help="override integrator step")
    run.add_argument("--t-end", type=float, help="override propagation horizon")
    run.add_argument("--samples", type=int, help="override number of retained samples")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if (args.scenario is None) == (args.config is None):
            raise ConfigError("exactly one of --scenario / --config is required")
        if args.scenario:
            raw = scenario_defaults(args.scenario)
            name = args.scenario
        else:
            try:
                raw = _read(json.loads(Path(args.config).read_text()), dict,
                            f"config {args.config}")
            except (OSError, ValueError) as exc:
                raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
            name = _read(raw.get("name", Path(args.config).stem), str, "name")
        integrator = {key: val for key, val in (("dt", args.dt), ("t_end", args.t_end),
                                                ("n_samples", args.samples)) if val is not None}
        out_dir = args.out or os.environ.get("LANDAUER_OUT") or "landauer-out"
        config = build_config(raw, name, out_dir, args.plots, integrator)
        return run_scenario(config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LandauerBoundsError as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

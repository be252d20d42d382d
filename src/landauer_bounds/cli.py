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
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from . import models, plotting, qstate, refsolve, thermo
from .errors import ConfigError, LandauerBoundsError, SchemaError, UnnormalizedVector
from .linalg import EigenSystem
from .lindblad import JumpChannel, LindbladModel, Trajectory, propagate, step_count
from .plotting import DRIVEN_COLUMNS, UNDRIVEN_COLUMNS
from .qstate import DensityMatrix
from .refsolve import BRANCH_NEGATIVE, BRANCH_NON_NEGATIVE

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_VIOLATION = 2
EXIT_CONFIG = 3

VERDICT_TOL = 1e-6

CONFIG_KEYS = frozenset({"name", "model", "model_params", "initial_state", "integrator",
                         "bath_T", "beta_branch", "sweep", "custom_model_file"})
SWEEP_KEYS = frozenset({"name", "overrides"})

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
    "fig2": {
        "model": "erasure",
        "model_params": {"eps0": 0.4, "eps_tau": 10.0, "tau": 10.0,
                         "gamma": 0.2, "bath_beta": 1.0},
        "initial_state": {"kind": "gibbs", "beta": 1.0},
        "integrator": {"dt": 10.0 / 20000, "t_end": 10.0, "n_samples": 401},
        "bath_T": 1.0,
        "beta_branch": BRANCH_NON_NEGATIVE,
    },
}


def _figs1_defaults() -> dict[str, Any]:
    cfg = copy.deepcopy(_SCENARIOS["fig2"])
    cfg["sweep"] = [
        {
            "name": f"tau={tau:g}",
            "overrides": {
                "model_params": {"tau": tau},
                "integrator": {"dt": tau / 20000, "t_end": tau},
            },
        }
        for tau in (5.0, 10.0, 20.0)
    ]
    return cfg


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario configuration (see README for the JSON schema)."""

    name: str
    model: str
    model_params: dict[str, float]
    initial_state: dict[str, Any]
    dt: float
    t_end: float
    n_samples: int
    bath_T: float | None
    beta_branch: str
    out_dir: Path
    plots: bool
    sweep: tuple[tuple[str, dict[str, Any]], ...]
    custom_model_file: str | None


def _real(value: Any, what: str) -> float:
    """A JSON number (int or float, not bool) as a float."""
    if type(value) not in (int, float):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    return float(value)


def _sweep_entries(raw: dict[str, Any]) -> list[tuple[str, dict[str, Any]]]:
    """(name, overrides) of each sweep entry; a name (default entry{i}) is an
    output subdirectory, so it must be one path component and unique."""
    sweep = raw.get("sweep") or []
    if not isinstance(sweep, list) or not all(
            isinstance(e, dict) and set(e) <= SWEEP_KEYS
            and isinstance(e.get("overrides", {}), dict) for e in sweep):
        raise ConfigError(f"sweep must be a list of objects with keys in {sorted(SWEEP_KEYS)}"
                          " and object-valued overrides")
    names = [e.get("name", f"entry{i}") for i, e in enumerate(sweep)]
    for name in names:
        if not isinstance(name, str) or name in ("", ".", "..") or "/" in name or "\0" in name:
            raise ConfigError(f"sweep entry name {name!r} is not a single path component")
    if len(set(names)) < len(names):
        raise ConfigError(f"sweep entry names {names} are not unique")
    return [(name, e.get("overrides", {})) for name, e in zip(names, sweep)]


def build_config(raw: dict[str, Any], name: str, out_dir: str | Path, plots: bool) -> ScenarioConfig:
    unknown = sorted(set(raw) - CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown configuration keys {unknown}")
    try:
        integ = raw["integrator"]
        dt = _real(integ["dt"], "dt")
        t_end = _real(integ["t_end"], "t_end")
        n_samples = integ["n_samples"]
        model = str(raw["model"])
        if model not in ("rydberg", "erasure", "custom"):
            raise ConfigError(f"unknown model {model!r}")
        if not (0 < dt < math.inf and 0 < t_end < math.inf):
            raise ConfigError("dt and t_end must be positive and finite")
        if type(n_samples) is float and n_samples.is_integer():
            n_samples = int(n_samples)
        if type(n_samples) is not int or n_samples < 2:
            raise ConfigError(f"n_samples must be an integer >= 2, got {n_samples!r}")
        if not t_end / dt < 2.0 ** 63 or step_count(t_end, dt) < n_samples - 1:
            raise ConfigError(f"t_end / dt = {t_end / dt:.6g} steps must fit in int64 and"
                              f" be at least n_samples - 1 = {n_samples - 1}")
        branch = raw.get("beta_branch", BRANCH_NON_NEGATIVE)
        if branch not in (BRANCH_NON_NEGATIVE, BRANCH_NEGATIVE):
            raise ConfigError(f"unknown beta_branch {branch!r}")
        bath = raw.get("bath_T")
        if bath is not None:
            bath = _real(bath, "bath_T")
            if bath <= 0:
                raise ConfigError("bath_T must be positive when set")
        init = dict(raw["initial_state"])
        if "kind" not in init:
            raise ConfigError("initial_state needs a 'kind'")
        params = raw.get("model_params", {})
        if not isinstance(params, dict):
            raise ConfigError("model_params must be an object")
        sweep = _sweep_entries(raw)
        return ScenarioConfig(
            name=name,
            model=model,
            model_params={k: _real(v, f"model_params {k}") for k, v in params.items()},
            initial_state=init,
            dt=dt,
            t_end=t_end,
            n_samples=n_samples,
            bath_T=bath,
            beta_branch=branch,
            out_dir=Path(out_dir),
            plots=plots,
            sweep=tuple(sweep),
            custom_model_file=raw.get("custom_model_file"),
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def load_custom_model(path: str | Path) -> LindbladModel:
    """Undriven model from a JSON matrix file.

    Schema: {"dim": d, "hamiltonian": {"re": [[..]], "im": [[..]]},
             "channels": [{"rate": g, "operator": {"re": [[..]], "im": [[..]]}}]}
    with "im" optional.
    """
    try:
        spec = json.loads(Path(path).read_text())
        dim = int(spec["dim"])
        h = _matrix_from_json(spec["hamiltonian"], dim)
        channels = tuple(
            JumpChannel.constant(float(ch["rate"]), _matrix_from_json(ch["operator"], dim))
            for ch in spec.get("channels", [])
        )
    except (OSError, KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise SchemaError(f"custom model file {path}: {exc}") from exc
    return LindbladModel(dim=dim, hamiltonian_protocol=lambda t: h,
                         channels=channels, driven=False)


def _matrix_from_json(obj: dict[str, Any], dim: int) -> np.ndarray:
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj.get("im", np.zeros((dim, dim))), dtype=float)
    m = re + 1j * im
    if m.shape != (dim, dim):
        raise ValueError(f"matrix shape {m.shape} != ({dim}, {dim})")
    return m


@dataclass(frozen=True, eq=False)
class PipelineResult:
    """Everything a single scenario run produced, before serialization."""

    config: ScenarioConfig
    model: LindbladModel
    trajectory: Trajectory
    kind: str  # "undriven" | "driven"
    bounds: thermo.Bounds
    beta_results: list[refsolve.BetaSolveResult]
    nlp: thermo.NlpComparison | None
    meta: dict[str, Any]
    bell_state: np.ndarray | None = None


def _build_model(config: ScenarioConfig) -> tuple[LindbladModel, np.ndarray | None]:
    if config.model == "custom":
        if config.custom_model_file is None:
            raise ConfigError("model 'custom' needs custom_model_file")
        return load_custom_model(config.custom_model_file), None
    params_type = models.RydbergParams if config.model == "rydberg" else models.ErasureParams
    try:
        params = params_type(**config.model_params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid model_params for {config.model!r}: {exc}") from exc
    if config.model == "rydberg":
        return models.build_rydberg(params)
    return models.build_erasure(params), None


def _build_initial_state(config: ScenarioConfig, model: LindbladModel,
                         h0: np.ndarray) -> DensityMatrix:
    init = config.initial_state
    kind = init["kind"]
    try:
        if kind in ("gibbs", "sorted_ascending_diagonal"):
            return models.initial_state(kind, h0, beta=_real(init["beta"], "initial_state beta"))
        if kind == "maximally_mixed":
            return models.initial_state(kind, h0)
        if kind == "pure":
            vec = np.array([complex(_real(re, "pure vector entry"), _real(im, "pure vector entry"))
                            for re, im in init["vector"]])
            if vec.shape != (model.dim,):
                raise ConfigError(f"pure initial state vector has {len(vec)} entries, "
                                  f"the model has dimension {model.dim}")
            return models.initial_state(kind, vector=vec)
    except KeyError as exc:
        raise ConfigError(f"initial_state of kind {kind!r} needs {exc}") from exc
    except (TypeError, ValueError, UnnormalizedVector) as exc:
        raise ConfigError(f"invalid initial_state of kind {kind!r}: {exc}") from exc
    raise ConfigError(f"unknown initial_state kind {kind!r}")


def run_pipeline(config: ScenarioConfig) -> PipelineResult:
    """Propagate, solve references, and evaluate bounds for one configuration."""
    model, bell = _build_model(config)
    h0 = model.hamiltonian(0.0)
    rho0 = _build_initial_state(config, model, h0)
    # beta_R(0) enters every driven sample, so a start that saturates it is
    # refused before propagating, by the series solve's criterion at sample 0.
    if model.driven and refsolve.solve_beta_series(
            np.linalg.eigvalsh(h0)[None], [qstate.von_neumann_entropy(rho0)],
            config.beta_branch)[0].saturated:
        raise ConfigError(f"initial_state of kind {config.initial_state['kind']!r}"
                          " saturates beta_R(0): S(rho0) is at the Gibbs entropy floor"
                          " of H(0), and driven models need S(rho0) > 0")
    traj = propagate(model, rho0, config.t_end, config.dt, config.n_samples)

    samples = thermo.evaluate_samples(traj, model)
    basis0 = EigenSystem(samples.levels[0], samples.vectors[0])
    if model.driven:
        kind = "driven"
        beta_results = refsolve.solve_beta_series(samples.levels, samples.values.S,
                                                  config.beta_branch)
        bounds = thermo.driven_bounds(traj, model, samples, beta_results, config.bath_T)
    else:
        kind = "undriven"
        beta_results = [refsolve.solve_beta(basis0, samples.values.S[0], config.beta_branch)]
        bounds = thermo.undriven_bounds(traj, model, samples, beta_results[0], config.bath_T)

    nlp = None
    if config.bath_T is not None:
        nlp = thermo.nlp_comparison(traj, model, samples, 1.0 / config.bath_T)

    meta = _build_meta(config, basis0, traj, kind, bounds, beta_results, nlp, bell)
    return PipelineResult(config=config, model=model, trajectory=traj, kind=kind,
                          bounds=bounds, beta_results=beta_results, nlp=nlp,
                          meta=meta, bell_state=bell)


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


def _build_meta(config: ScenarioConfig, basis0: EigenSystem, traj: Trajectory,
                kind: str, bounds: thermo.Bounds,
                beta_results: list[refsolve.BetaSolveResult],
                nlp: thermo.NlpComparison | None,
                bell: np.ndarray | None) -> dict[str, Any]:
    b0 = beta_results[0]
    flipped = b0.beta_R < 0
    degenerate = bool(qstate.has_degenerate_spectrum(basis0.eigenvalues))

    balance = float(np.max(np.abs((bounds.E_S - bounds.E_S[0]) - (traj.work - traj.heat))))

    meta: dict[str, Any] = {
        "scenario": config.name,
        "config": {
            "model": config.model,
            "model_params": config.model_params,
            "initial_state": config.initial_state,
            "integrator": {"dt": config.dt, "t_end": config.t_end,
                           "n_samples": config.n_samples},
            "bath_T": config.bath_T,
            "beta_branch": config.beta_branch,
        },
        "integrator": {
            "dt_effective": traj.dt,
            "n_steps": traj.n_steps,
            "method": "fixed-step classical RK4 with in-stage heat/work accumulation",
        },
        "reference": {
            "beta_R0": b0.beta_R,
            "residual": b0.residual,
            "saturated": b0.saturated,
            "branch": b0.branch,
            "direction_flipped": flipped,
        },
        "diagnostics": {
            "max_step_trace_drift": traj.max_step_trace_drift,
            "cumulative_trace_drift": traj.cumulative_trace_drift,
            "min_eigenvalue": float(np.min(traj.min_eigenvalues)),
            "max_energy_balance_error": balance,
            "saturated_samples": sum(1 for r in beta_results if r.saturated),
            "failed_beta_solves": sum(1 for r in beta_results if r.error is not None),
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
        "verdicts": _verdicts(bounds, nlp, flipped),
    }
    if bell is not None:
        meta["bell_fidelity_end"] = qstate.fidelity_pure(traj.states[-1], bell)
    if kind == "driven":
        beta_t = bounds.beta_R_t[~np.isnan(bounds.beta_R_t)]
        meta["reference"]["beta_R_final"] = float(beta_t[-1]) if beta_t.size else None
    return meta


def _format_cells(values: np.ndarray, blank_nan: bool) -> list[str]:
    """'%.15g' of each value in one formatting pass; with ``blank_nan`` NaN is an empty cell."""
    cells = (("%.15g\0" * len(values)) % tuple(values.tolist())).split("\0")[:-1]
    return [cell if cell != "nan" else "" for cell in cells] if blank_nan else cells


def write_bounds_csv(result: PipelineResult, path: Path) -> None:
    """One row per sample; each block of samples is formatted column by column.
    NaN is an empty cell in ``thermo.OPTIONAL_COLUMNS`` and ``nan`` elsewhere."""
    table = result.bounds
    columns = UNDRIVEN_COLUMNS if result.kind == "undriven" else DRIVEN_COLUMNS
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\r\n")
        for b in thermo.sample_blocks(len(table)):
            cells = [_format_cells(table[c][b], c in thermo.OPTIONAL_COLUMNS)
                     for c in columns[:-1]]
            cells.append([";".join(f) for f in table.flags[b]])
            fh.write("".join(",".join(rec) + "\r\n" for rec in zip(*cells)))


def write_trajectory_csv(result: PipelineResult, path: Path) -> None:
    """One row per sample; each block of samples is formatted in one %-format pass."""
    traj = result.trajectory
    upper, strict = np.triu_indices(result.model.dim), np.triu_indices(result.model.dim, 1)
    header = ["t", "Q", "W", "min_eig"]
    header += [f"rho_{i}_{j}_re" for i, j in zip(*upper)]
    header += [f"rho_{i}_{j}_im" for i, j in zip(*strict)]
    line = ",".join(["%.15g"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for b in thermo.sample_blocks(len(traj.times)):
            rho = traj.states[b]
            block = np.column_stack([traj.times[b], traj.heat[b], traj.work[b],
                                     traj.min_eigenvalues[b], rho[:, upper[0], upper[1]].real,
                                     rho[:, strict[0], strict[1]].imag])
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


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


def write_meta_json(meta: dict[str, Any], path: Path) -> None:
    path.write_text(json.dumps(_json_safe(meta), indent=2, sort_keys=True) + "\n")


def write_outputs(result: PipelineResult) -> Path:
    out = result.config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(result, out / "trajectory.csv")
    write_bounds_csv(result, out / "bounds.csv")
    write_meta_json(result.meta, out / "meta.json")
    if result.config.plots:
        plotting.emit_plots(result.kind, result.bounds, result.meta["reference"]["beta_R0"], out)
    return out


def _exit_code(meta: dict[str, Any]) -> int:
    verdicts = meta.get("verdicts", {})
    return EXIT_OK if all(v["holds"] for v in verdicts.values()) else EXIT_VIOLATION


def _merge(base: dict[str, Any], overrides: dict[str, Any]) -> dict[str, Any]:
    out = copy.deepcopy(base)
    for key, val in overrides.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = val
    return out


def run_scenario(config: ScenarioConfig, raw: dict[str, Any] | None = None) -> int:
    """Execute one scenario (or its sweep) and write all outputs."""
    if not config.sweep:
        result = run_pipeline(config)
        write_outputs(result)
        return _exit_code(result.meta)

    if raw is None:
        raise ConfigError("sweep execution needs the raw configuration dict")
    entries = []
    codes = []
    for name, overrides in config.sweep:
        sub_raw = _merge({k: v for k, v in raw.items() if k != "sweep"}, overrides)
        sub = build_config(sub_raw, f"{config.name}/{name}",
                           config.out_dir / name, config.plots)
        result = run_pipeline(sub)
        write_outputs(result)
        codes.append(_exit_code(result.meta))
        entries.append((name, result.bounds, result.meta["reference"]["beta_R0"], result.meta))

    summary = {
        "scenario": config.name,
        "sweep": [
            {"name": name, "verdicts": meta["verdicts"],
             "reference": meta["reference"], "diagnostics": meta["diagnostics"]}
            for name, _, _, meta in entries
        ],
    }
    config.out_dir.mkdir(parents=True, exist_ok=True)
    write_meta_json(summary, config.out_dir / "meta.json")
    if config.plots:
        panels = plotting.sweep_panels([(n, r, b) for n, r, b, _ in entries])
        (config.out_dir / "sweep.svg").write_text(plotting.render(panels))
    return max(codes) if codes else EXIT_OK


def scenario_defaults(name: str) -> dict[str, Any]:
    if name == "figS1":
        return _figs1_defaults()
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
    run.add_argument("--scenario", choices=["fig1", "fig2", "figS1"],
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
                raw = json.loads(Path(args.config).read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
            if not isinstance(raw, dict):
                raise ConfigError(f"config {args.config} is not a JSON object")
            name = raw.get("name", Path(args.config).stem)
        for key, val in (("dt", args.dt), ("t_end", args.t_end), ("n_samples", args.samples)):
            if val is not None:
                if not isinstance(raw.setdefault("integrator", {}), dict):
                    raise ConfigError("integrator must be an object")
                raw["integrator"][key] = val
                for _, overrides in _sweep_entries(raw):
                    integ = overrides.get("integrator")
                    if isinstance(integ, dict):
                        integ.pop(key, None)
        out_dir = args.out or os.environ.get("LANDAUER_OUT") or "landauer-out"
        config = build_config(raw, name, out_dir, args.plots)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        return run_scenario(config, raw)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LandauerBoundsError as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

import csv
import dataclasses
import json
import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from landauer_bounds import cli, linalg, plotting, qstate, thermo
from landauer_bounds.errors import SchemaError
from landauer_bounds.lindblad import Trajectory


def run_cli(*args):
    return cli.main(list(args))


def read_meta(out_dir):
    return json.loads((out_dir / "meta.json").read_text())


def test_tiny_fig1_run_writes_outputs(tmp_path):
    out = tmp_path / "run"
    code = run_cli("run", "--scenario", "fig1", "--out", str(out),
                   "--t-end", "5", "--samples", "6", "--plots")
    assert code == 0
    for name in ("trajectory.csv", "bounds.csv", "meta.json", "bounds.svg"):
        assert (out / name).exists()
    kind, cols = plotting.read_bounds_csv(out / "bounds.csv")
    assert kind == "undriven"
    assert len(cols["t"]) == 6
    assert cols["t"][0] == 0.0
    meta = read_meta(out)
    assert meta["flags"]["degenerate_hamiltonian_spectrum"] is True
    assert meta["reference"]["beta_R0"] == pytest.approx(30.0, abs=1e-7)
    assert 0 <= meta["bell_fidelity_end"] <= 1


def test_verdicts_match_recomputed_slacks(tmp_path):
    out = tmp_path / "run"
    assert run_cli("run", "--scenario", "fig2", "--out", str(out),
                   "--t-end", "2", "--samples", "21") == 0
    kind, cols = plotting.read_bounds_csv(out / "bounds.csv")
    assert kind == "driven"
    meta = read_meta(out)
    recomputed = {
        "gap_nonneg": min(cols["gap"]),
        "heat_upper": min(cols["upper"] - cols["Q"]),
        "lp_lower": min(cols["Q"] - cols["lp_lower"]),
        "gap_identity": -max(abs(cols["gap"] - cols["D_inst"])),
    }
    for name, slack in recomputed.items():
        assert meta["verdicts"][name]["worst_slack"] == pytest.approx(slack, abs=1e-12)
        assert meta["verdicts"][name]["holds"]


def test_config_errors_exit_3(tmp_path):
    assert run_cli("run", "--scenario", "fig1", "--config", "x.json") == 3
    assert run_cli("run", "--config", str(tmp_path / "missing.json")) == 3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model": "nope", "initial_state": {"kind": "gibbs"},
                               "integrator": {"dt": 0.1, "t_end": 1, "n_samples": 2}}))
    assert run_cli("run", "--config", str(bad)) == 3


@pytest.mark.parametrize("change", [
    {"model_params": {"bogus": 1.0}},
    {"model_params": {"tau": 0.0}},
    {"model_params": {"eps0": 0.0}},
    {"model_params": {"eps0": -0.4}},
    {"initial_state": {"kind": "pure", "vector": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}},
    {"initial_state": {"kind": "gibbs"}},
    {"initial_state": {"kind": "sorted_ascending_diagonal"}},
    {"initial_state": {"kind": "pure", "vector": [[1.0], [0.0, 0.0]]}},
    {"initial_state": {"kind": "pure", "vector": [[1.0, 0.0], [1.0, 0.0]]}},
    {"top_level": {"integrater": {"dt": 0.01}}},
    {"config": []},
    {"top_level": {"sweep": [{"name": "tau=5", "override": {"model_params": {"tau": 5.0}}}]}},
    {"top_level": {"sweep": ["tau=5"]}},
    # --dt, --t-end and --samples rewrite the integrator of the config and of
    # every sweep entry before the configuration is built
    {"top_level": {"sweep": ["tau=5"]}, "args": ["--dt", "0.01"]},
    {"top_level": {"integrator": 5}, "args": ["--dt", "0.01"]},
    {"top_level": {"sweep": [{"name": "a", "overrides": {"integrator": 5}}]},
     "args": ["--samples", "3"]},
    {"top_level": {"integrator": {"dt": math.nan, "t_end": 10.0, "n_samples": 5}}},
    {"top_level": {"integrator": {"dt": math.inf, "t_end": 10.0, "n_samples": 5}}},
    {"top_level": {"integrator": {"dt": 1e-300, "t_end": 10.0, "n_samples": 5}}},
    {"top_level": {"integrator": {"dt": 0.01, "t_end": 10.0, "n_samples": 5.5}}},
    {"top_level": {"integrator": {"dt": 0.01, "t_end": 10.0, "n_samples": "5"}}},
    {"top_level": {"integrator": {"dt": 0.5, "t_end": 1.0, "n_samples": 5}}},
    {"args": ["--dt", "nan"]},
    {"args": ["--t-end", "inf"]},
    {"args": ["--dt", "1e-300"]},
    {"args": ["--samples", "100000"]},
    # numbers must be JSON numbers: no numeric strings, no booleans
    {"top_level": {"integrator": {"dt": "0.01", "t_end": 10.0, "n_samples": 5}}},
    {"top_level": {"integrator": {"dt": 0.01, "t_end": True, "n_samples": 5}}},
    {"top_level": {"bath_T": "1"}},
    {"model_params": {"eps0": "0.4"}},
    {"top_level": {"model_params": [0.4]}},
    {"initial_state": {"kind": "gibbs", "beta": "1"}},
    # a sweep entry's name is its output subdirectory under --out
    {"top_level": {"sweep": [{"name": 5}]}},
    {"top_level": {"sweep": [{"name": "a"}, {"name": "a"}]}},
    {"top_level": {"sweep": [{"name": "entry1"}, {}]}},
    {"top_level": {"sweep": [{"name": "../escaped"}]}},
    # a pure start has S = 0, where beta_R(0) saturates: the driven chain needs S > 0
    {"initial_state": {"kind": "pure", "vector": [[1.0, 0.0], [0.0, 0.0]]},
     "top_level": {"integrator": {"dt": 0.001, "t_end": 1.0, "n_samples": 3}}},
    # on the undriven pump a pure start runs, so only the booleans can stop it
    {"initial_state": {"kind": "pure", "vector": [[True, False]] + [[False, False]] * 8},
     "top_level": {"model": "rydberg", "model_params": {}, "bath_T": None,
                   "integrator": {"dt": 0.01, "t_end": 1.0, "n_samples": 3}}},
], ids=["unknown-key", "tau-zero", "eps0-zero", "eps0-negative", "pure-vector-length",
        "gibbs-without-beta", "sorted-without-beta", "pure-entry-one-number",
        "pure-unnormalized", "unknown-top-level-key", "config-not-an-object",
        "sweep-entry-unknown-key", "sweep-entry-not-an-object",
        "sweep-entry-not-an-object-with-dt", "integrator-not-an-object-with-dt",
        "sweep-integrator-not-an-object-with-samples", "dt-nan", "dt-inf",
        "step-count-beyond-int64", "samples-fractional", "samples-string",
        "samples-beyond-steps", "dt-nan-flag", "t-end-inf-flag",
        "step-count-beyond-int64-flag", "samples-beyond-steps-flag", "dt-string",
        "t-end-bool", "bath-T-string", "eps0-string",
        "model-params-not-an-object", "beta-string", "sweep-name-not-a-string",
        "sweep-names-repeated", "sweep-name-repeats-a-default", "sweep-name-escapes-out",
        "driven-pure-start", "pure-vector-booleans"])
def test_bad_model_input_exits_3_with_one_line(tmp_path, capsys, change):
    raw = cli.scenario_defaults("fig2")
    raw["model_params"].update(change.get("model_params", {}))
    raw["initial_state"] = change.get("initial_state", raw["initial_state"])
    raw.update(change.get("top_level", {}))
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(change.get("config", raw)))
    assert run_cli("run", "--config", str(config), "--out", str(tmp_path / "out"),
                   *change.get("args", [])) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert err.count("\n") == 1


def test_driven_pure_start_is_refused_before_propagating(tmp_path, capsys, monkeypatch):
    # S(rho0) = 0 and the levels of H(0) already show that beta_R(0) saturates
    def no_propagation(*args, **kwargs):
        raise RuntimeError("propagate must not run")

    monkeypatch.setattr(cli, "propagate", no_propagation)
    raw = cli.scenario_defaults("fig2")
    raw["initial_state"] = {"kind": "pure", "vector": [[1.0, 0.0], [0.0, 0.0]]}
    config = tmp_path / "pure.json"
    config.write_text(json.dumps(raw))
    assert run_cli("run", "--config", str(config), "--out", str(tmp_path / "out")) == 3
    assert capsys.readouterr().err == (
        "configuration error: initial_state of kind 'pure' saturates beta_R(0): S(rho0) is at"
        " the Gibbs entropy floor of H(0), and driven models need S(rho0) > 0\n")


def test_pipeline_evaluates_each_sample_once(tmp_path, monkeypatch):
    # Energy bases and state functionals are shared by the reference solves,
    # the bound chain and the NLP comparison: one stacked state_functionals
    # call per block of samples, and no eigh per sample.
    calls = {"eigh": 0, "state_functionals": 0}

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(linalg, "eigh")
    count(qstate, "state_functionals")
    raw = cli.scenario_defaults("fig2")
    raw["integrator"].update(t_end=2.0, n_samples=21)
    result = cli.run_pipeline(cli.build_config(raw, "fig2", tmp_path, plots=False))
    n = len(result.trajectory.times)
    assert n == 21
    assert calls["state_functionals"] == math.ceil(n / thermo.SAMPLE_BLOCK)
    assert calls["eigh"] <= 5


@pytest.mark.parametrize("scenario", ["fig1", "fig2"])
def test_sample_blocks_do_not_change_results(tmp_path, monkeypatch, scenario):
    raw = cli.scenario_defaults(scenario)
    raw["integrator"].update(t_end=2.0, n_samples=20)
    config = cli.build_config(raw, scenario, tmp_path, plots=False)
    whole = cli.run_pipeline(config)
    monkeypatch.setattr(thermo, "SAMPLE_BLOCK", 7)
    blocked = cli.run_pipeline(config)
    for new, old in ((blocked.bounds, whole.bounds), (blocked.nlp, whole.nlp)):
        if old is None:
            assert new is None
            continue
        assert len(new) == len(old) == 20  # one entry per sample, not one per column
        for f in dataclasses.fields(old):
            if f.name == "flags":
                assert new.flags == old.flags
            else:
                assert np.array_equal(new[f.name], old[f.name], equal_nan=True), f.name
    assert blocked.meta == whole.meta


def test_unstable_step_exits_1(tmp_path):
    out = tmp_path / "boom"
    with pytest.warns(UserWarning, match="accuracy may degrade"):
        code = run_cli("run", "--scenario", "fig2", "--out", str(out),
                       "--dt", "10", "--t-end", "10", "--samples", "2")
    assert code == 1


def test_custom_matrix_model(tmp_path):
    model_file = tmp_path / "damping.json"
    model_file.write_text(json.dumps({
        "dim": 2,
        "hamiltonian": {"re": [[-0.5, 0.0], [0.0, 0.5]]},
        "channels": [{"rate": 0.4, "operator": {"re": [[0.0, 1.0], [0.0, 0.0]]}}],
    }))
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({
        "name": "damping",
        "model": "custom",
        "custom_model_file": str(model_file),
        "initial_state": {"kind": "pure", "vector": [[0.0, 0.0], [1.0, 0.0]]},
        "integrator": {"dt": 0.001, "t_end": 5.0, "n_samples": 11},
        "bath_T": None,
    }))
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(config), "--out", str(out)) == 0
    kind, cols = plotting.read_bounds_csv(out / "bounds.csv")
    assert kind == "undriven"
    # decay toward the ground state dissipates heat: Q grows positive
    assert cols["Q"][-1] > 0.1
    meta = read_meta(out)
    assert meta["reference"]["saturated"] is True  # pure initial state
    # the capped reference is numerically a projector: no gap identity pair
    assert np.isnan(cols["gap_P"]).all() and np.isnan(cols["D_direct"]).all()
    assert "gap_nonneg" not in meta["verdicts"] and "gap_identity" not in meta["verdicts"]
    assert all(f == "saturated" for f in cols["flags"])


def test_environment_variable_sets_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("LANDAUER_OUT", str(tmp_path / "env-out"))
    assert run_cli("run", "--scenario", "fig1", "--t-end", "2", "--samples", "3") == 0
    assert (tmp_path / "env-out" / "bounds.csv").exists()


def test_sweep_writes_subdirectories(tmp_path):
    config = tmp_path / "sweep.json"
    raw = cli.scenario_defaults("figS1")
    for entry in raw["sweep"]:
        entry["overrides"]["integrator"] = {
            "dt": entry["overrides"]["integrator"]["t_end"] / 400,
            "t_end": entry["overrides"]["integrator"]["t_end"],
            "n_samples": 21,
        }
    raw["integrator"]["n_samples"] = 21
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    # dt = tau / 400 is coarse where the gap is largest, at t = tau
    with pytest.warns(UserWarning, match="accuracy may degrade"):
        assert run_cli("run", "--config", str(config), "--out", str(out), "--plots") == 0
    names = [e["name"] for e in raw["sweep"]]
    assert names == ["tau=5", "tau=10", "tau=20"]
    for name in names:
        assert (out / name / "bounds.csv").exists()
        assert (out / name / "meta.json").exists()
    assert (out / "sweep.svg").exists()
    top = read_meta(out)
    assert [e["name"] for e in top["sweep"]] == names


def test_determinism_small_run(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run_cli("run", "--scenario", "fig1", "--out", str(out),
                       "--t-end", "3", "--samples", "4", "--plots") == 0
    for name in ("bounds.csv", "trajectory.csv", "meta.json", "bounds.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_emit_plots_minimal_csv(tmp_path):
    path = tmp_path / "bounds.csv"
    header = ",".join(plotting.UNDRIVEN_COLUMNS)
    row1 = "0,0.1,0.5,0.5,0,0,0.1,0.2,0.2,0.3,,"
    row2 = "1,0.05,0.4,0.45,0.05,0.05,0.05,0.1,0.1,0.2,,"
    path.write_text(f"{header}\r\n{row1}\r\n{row2}\r\n")
    (written,) = plotting.emit_plots(*plotting.read_bounds_csv(path), 1.0, tmp_path)
    svg = written.read_text()
    assert svg.startswith("<?xml")
    assert "<polyline" in svg
    import xml.dom.minidom
    xml.dom.minidom.parseString(svg)


def test_emit_plots_rejects_unknown_schema(tmp_path):
    path = tmp_path / "bounds.csv"
    path.write_text("a,b,c\r\n1,2,3\r\n")
    with pytest.raises(SchemaError):
        plotting.emit_plots(*plotting.read_bounds_csv(path), 1.0, tmp_path)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(SchemaError):
        plotting.emit_plots(*plotting.read_bounds_csv(empty), 1.0, tmp_path)


def test_negative_branch_through_config(tmp_path):
    config = tmp_path / "neg.json"
    raw = cli.scenario_defaults("fig2")
    raw["model"] = "custom"
    raw["custom_model_file"] = str(tmp_path / "m.json")
    (tmp_path / "m.json").write_text(json.dumps({
        "dim": 2,
        "hamiltonian": {"re": [[-0.2, 0.0], [0.0, 0.2]]},
        "channels": [
            {"rate": 0.1, "operator": {"re": [[0.0, 1.0], [0.0, 0.0]]}},
            {"rate": 0.05, "operator": {"re": [[0.0, 0.0], [1.0, 0.0]]}},
        ],
    }))
    raw["initial_state"] = {"kind": "sorted_ascending_diagonal", "beta": 1.0}
    raw["beta_branch"] = "negative"
    raw["integrator"] = {"dt": 0.001, "t_end": 2.0, "n_samples": 11}
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    code = run_cli("run", "--config", str(config), "--out", str(out))
    meta = read_meta(out)
    assert meta["reference"]["beta_R0"] < 0
    assert meta["reference"]["direction_flipped"] is True
    assert "heat_lower_flipped" in meta["verdicts"]
    assert "heat_upper" not in meta["verdicts"]
    assert code == 0
    _, cols = plotting.read_bounds_csv(out / "bounds.csv")
    assert all("direction_flipped" in f for f in cols["flags"])


def test_driven_negative_branch_through_config(tmp_path):
    # the fig2 erasure on the negative branch: beta_R(0) < 0 turns the upper
    # bound Q <= Qu~ + W into the lower bound Q >= Qu~ + W
    config = tmp_path / "neg.json"
    raw = cli.scenario_defaults("fig2")
    raw["beta_branch"] = "negative"
    raw["integrator"]["n_samples"] = 41
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    code = run_cli("run", "--config", str(config), "--out", str(out))
    meta = read_meta(out)
    assert meta["reference"]["beta_R0"] < 0
    assert "heat_lower_flipped" in meta["verdicts"]
    assert "heat_upper" not in meta["verdicts"]
    assert code == 0
    _, cols = plotting.read_bounds_csv(out / "bounds.csv")
    assert all("direction_flipped" in f for f in cols["flags"])


def test_driven_maximally_mixed_start(tmp_path):
    # beta_R(0) = 0, so T_R(0) diverges; T_R(0) C(0) = inf * 0 counts as 0.
    # A RuntimeWarning would fail the test (pyproject.toml filterwarnings).
    raw = cli.scenario_defaults("fig2")
    raw["initial_state"] = {"kind": "maximally_mixed"}
    raw["integrator"].update(t_end=2.0, n_samples=21)
    config = tmp_path / "mixed.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    run_cli("run", "--config", str(config), "--out", str(out))
    meta = read_meta(out)
    _, cols = plotting.read_bounds_csv(out / "bounds.csv")
    assert meta["reference"]["beta_R0"] == 0.0
    assert math.isfinite(cols["Qu_tilde"][0])
    # T_R(0) (C - dS) = inf * gap: the bound is vacuous, not undefined, after t = 0
    assert not np.any(np.isnan(cols["Qu_tilde"]))
    assert np.all(cols["Qu_tilde"][1:] == math.inf)
    assert "heat_upper" in meta["verdicts"]


def test_maximally_mixed_sweep_draws_the_coherence_term(tmp_path):
    # sweep.svg draws T_R(0) dCoh with T_R(0) = 1 at beta_R(0) = 0, as bounds.svg does
    raw = cli.scenario_defaults("figS1")
    raw["initial_state"] = {"kind": "maximally_mixed"}
    raw["sweep"] = raw["sweep"][:2]
    for entry in raw["sweep"]:
        t_end = entry["overrides"]["integrator"]["t_end"]
        entry["overrides"]["integrator"] = {"dt": t_end / 2000, "t_end": t_end, "n_samples": 11}
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(config), "--out", str(out), "--plots") == 0
    coherence = re.findall(r'<polyline points="([^"]*)"[^>]*/>\n<line[^>]*/>\n'
                           r'<text[^>]*>T_R\(0\) dCoh</text>', (out / "sweep.svg").read_text())
    assert len(coherence) == 2
    assert all(len(points.split()) == 11 for points in coherence)


def reference_csv(path, header, records):
    """The per-cell writer the columnar CSV writers replace.

    csv.writer with the excel dialect; floats as format(float(v), ".15g"),
    None as an empty cell and strings as they are.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for rec in records:
            writer.writerow(["" if v is None else v if isinstance(v, str)
                             else format(float(v), ".15g") for v in rec])


def reference_trajectory_csv(result, path):
    traj, d = result.trajectory, result.model.dim
    header = ["t", "Q", "W", "min_eig"]
    header += [f"rho_{i}_{j}_re" for i in range(d) for j in range(i, d)]
    header += [f"rho_{i}_{j}_im" for i in range(d) for j in range(i + 1, d)]
    records = []
    for k, m in enumerate(traj.states):
        rec = [traj.times[k], traj.heat[k], traj.work[k], traj.min_eigenvalues[k]]
        rec += [m[i, j].real for i in range(d) for j in range(i, d)]
        rec += [m[i, j].imag for i in range(d) for j in range(i + 1, d)]
        records.append(rec)
    reference_csv(path, header, records)


def reference_bounds_csv(result, path):
    """NaN is an empty cell in the optional columns and ``nan`` elsewhere."""
    columns = plotting.UNDRIVEN_COLUMNS if result.kind == "undriven" else plotting.DRIVEN_COLUMNS
    table = result.bounds
    records = [[None if c in thermo.OPTIONAL_COLUMNS and math.isnan(table[c][k])
                else table[c][k] for c in columns[:-1]] + [";".join(table.flags[k])]
               for k in range(len(table.t))]
    reference_csv(path, columns, records)


def synthetic_trajectory(n, d, values):
    """A Trajectory of n d x d samples whose every number is drawn from ``values``."""
    cells = np.resize(np.asarray(values, dtype=float), n * (4 + 2 * d * d))
    head, re_im = cells[:4 * n].reshape(4, n), cells[4 * n:].reshape(2, n, d, d)
    matrices = np.empty((n, d, d), dtype=complex)
    matrices.real, matrices.imag = re_im  # re + 1j * im would turn an infinite im into NaN
    return Trajectory(times=head[0], states=matrices, heat=head[1], work=head[2],
                      min_eigenvalues=head[3], max_step_trace_drift=0.0,
                      cumulative_trace_drift=0.0, dt=1.0, n_steps=n - 1)


# Cells whose spelling a formatter could change: NaN, both infinities, negative
# zero, the smallest subnormal, 1e16 (exponent form at 15 digits) and values
# that need all 15 significant digits.
SPECIAL_VALUES = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 0.1, -1 / 3,
                  123456789012345678.0, 2.5e-300, 0.0, 1.0]
FLAG_SETS = [(), ("saturated",), ("degenerate_spectrum", "direction_flipped", "reference_saturated")]


def synthetic_result(kind, n):
    """A bound table and a 3 x 3 trajectory of n samples made of special values.

    Every column, optional or not, holds NaN at some samples.
    """
    fields = [f.name for f in dataclasses.fields(thermo.Bounds) if f.name != "flags"]
    columns = [np.array([SPECIAL_VALUES[(k * 5 + j) % len(SPECIAL_VALUES)] for k in range(n)])
               for j in range(len(fields))]
    flags = [FLAG_SETS[k % len(FLAG_SETS)] for k in range(n)]
    return SimpleNamespace(kind=kind, bounds=thermo.Bounds(*columns, flags=flags), model=SimpleNamespace(dim=3),
                           trajectory=synthetic_trajectory(n, 3, SPECIAL_VALUES))


@pytest.mark.parametrize("block", [None, 7], ids=["default-blocks", "blocks-of-7"])
@pytest.mark.parametrize("source", ["fig1_result", "fig2_result", "undriven", "driven"])
def test_csv_writers_match_per_cell_reference(tmp_path, request, monkeypatch, source, block):
    if source.endswith("_result"):
        result = request.getfixturevalue(source)
    else:
        result = synthetic_result(source, 40)
    if block is not None:
        monkeypatch.setattr(thermo, "SAMPLE_BLOCK", block)
    for write, reference in ((cli.write_trajectory_csv, reference_trajectory_csv),
                             (cli.write_bounds_csv, reference_bounds_csv)):
        write(result, tmp_path / "new.csv")
        reference(result, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_fig1_csv_spans_more_than_one_block(fig1_result):
    # the byte comparison above then covers a full block and a partial one
    assert thermo.SAMPLE_BLOCK < len(fig1_result.bounds) < 2 * thermo.SAMPLE_BLOCK
    assert np.isnan(fig1_result.bounds.lp_lower).any()


def test_trajectory_writer_memory_stays_bounded(tmp_path):
    # pump size: 4,001 samples of 9 x 9 states. Formatting the whole file in
    # one pass holds about 13 MB at once; a block of samples about 1.6 MB.
    rng = np.random.default_rng(0)
    result = SimpleNamespace(model=SimpleNamespace(dim=9),
                             trajectory=synthetic_trajectory(4001, 9, rng.standard_normal(997)))
    tracemalloc.start()
    try:
        current = tracemalloc.get_traced_memory()[0]
        cli.write_trajectory_csv(result, tmp_path / "trajectory.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - current < 4e6


def reference_polylines(svg, panel):
    """Polyline points of one rendered panel, scaled and formatted point by point."""
    px, py, pw, ph = map(int, re.search(
        r'<rect x="(\d+)" y="(\d+)" width="(\d+)" height="(\d+)" fill="none"', svg).groups())
    xs = [v for s in panel.series for v in s.x if math.isfinite(v)]
    ys = [v for s in panel.series for v in s.y if math.isfinite(v)]
    xlo, xhi, ylo, yhi = min(xs), max(xs), min(ys), max(ys)
    pad = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad
    return [" ".join(f"{px + (a - xlo) / (xhi - xlo) * pw:.2f},"
                     f"{py + ph - (b - ylo) / (yhi - ylo) * ph:.2f}"
                     for a, b in zip(s.x, s.y) if math.isfinite(a) and math.isfinite(b))
            for s in panel.series]


def test_polylines_match_pointwise_formatting():
    x = [0.0, 0.5, math.nan, 1.5, 2.0, math.inf, 3.0, 1 / 3]
    y = [1.0, -math.inf, 2.0, -0.0, 1e-9, 4.0, 1 / 3, -2.5]
    panel = plotting.Panel("p", "t", "v", [
        plotting.Series("a", x, y),
        plotting.Series("b", x, [7.0 * v for v in y]),
        plotting.Series("none finite", x, [math.nan] * len(x)),
    ])
    svg = plotting.render([panel])
    assert re.findall(r'points="([^"]*)"', svg) == reference_polylines(svg, panel)

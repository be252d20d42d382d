import json
import math

import numpy as np
import pytest

from landauer_bounds import cli, plotting
from landauer_bounds.errors import SchemaError


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
    kind, rows = plotting.read_bounds_csv(out / "bounds.csv")
    assert kind == "undriven"
    assert len(rows) == 6
    assert rows[0]["t"] == 0.0
    meta = read_meta(out)
    assert meta["flags"]["degenerate_hamiltonian_spectrum"] is True
    assert meta["reference"]["beta_R0"] == pytest.approx(30.0, abs=1e-7)
    assert 0 <= meta["bell_fidelity_end"] <= 1


def test_verdicts_match_recomputed_slacks(tmp_path):
    out = tmp_path / "run"
    assert run_cli("run", "--scenario", "fig2", "--out", str(out),
                   "--t-end", "2", "--samples", "21") == 0
    kind, rows = plotting.read_bounds_csv(out / "bounds.csv")
    assert kind == "driven"
    meta = read_meta(out)
    recomputed = {
        "gap_nonneg": min(r["gap"] for r in rows),
        "heat_upper": min(r["upper"] - r["Q"] for r in rows),
        "lp_lower": min(r["Q"] - r["lp_lower"] for r in rows),
        "gap_identity": -max(abs(r["gap"] - r["D_inst"]) for r in rows),
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
], ids=["unknown-key", "tau-zero", "eps0-zero", "eps0-negative", "pure-vector-length"])
def test_bad_model_input_exits_3_with_one_line(tmp_path, capsys, change):
    raw = cli.scenario_defaults("fig2")
    raw["model_params"].update(change.get("model_params", {}))
    raw["initial_state"] = change.get("initial_state", raw["initial_state"])
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(raw))
    assert run_cli("run", "--config", str(config), "--out", str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert err.count("\n") == 1


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
    kind, rows = plotting.read_bounds_csv(out / "bounds.csv")
    assert kind == "undriven"
    # decay toward the ground state dissipates heat: Q grows positive
    assert rows[-1]["Q"] > 0.1
    meta = read_meta(out)
    assert meta["reference"]["saturated"] is True  # pure initial state


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
    (written,) = plotting.emit_plots(path, tmp_path)
    svg = written.read_text()
    assert svg.startswith("<?xml")
    assert "<polyline" in svg
    import xml.dom.minidom
    xml.dom.minidom.parseString(svg)


def test_emit_plots_rejects_unknown_schema(tmp_path):
    path = tmp_path / "bounds.csv"
    path.write_text("a,b,c\r\n1,2,3\r\n")
    with pytest.raises(SchemaError):
        plotting.emit_plots(path)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(SchemaError):
        plotting.emit_plots(empty)


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
    _, rows = plotting.read_bounds_csv(out / "bounds.csv")
    assert all("direction_flipped" in r["flags"] for r in rows)

import csv
import importlib.util
import json
from pathlib import Path

import pytest

from landauer_bounds import cli

_SPEC = importlib.util.spec_from_file_location(
    "reference_outputs", Path(__file__).resolve().parents[1] / "tools" / "reference_outputs.py")
reference_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reference_outputs)


def test_reference_runs_are_the_figures_and_the_seed_zero_workloads(tmp_path):
    # and two custom model files, so the comparison reaches cli.load_custom_model
    # and the saturation band |beta_R| * spread > 700, and fig1 from every other
    # kind of initial state
    runs = reference_outputs.runs(tmp_path)
    assert [name for name, _ in runs] == ["fig1", "fig2", "figS1", "pump", "erase", "erase-sweep",
                                          "two-baths", "cold-qubit", "fig1-inset", "pump-pure",
                                          "pump-mixed"]
    assert [args for _, args in runs[:3]] == [["--scenario", n] for n in ("fig1", "fig2", "figS1")]
    kinds = set()
    for name, args in runs[3:]:
        assert args == ["--config", str(tmp_path / f"{name}.json")]
        raw = json.loads(Path(args[1]).read_text())
        config = cli.build_config(raw, name, tmp_path / "out", plots=True)
        assert isinstance(config, cli.Sweep) == (name == "erase-sweep")
        assert (raw["model"] == "custom") == (name in ("two-baths", "cold-qubit"))
        kinds.add(raw["initial_state"]["kind"])
    assert kinds == set(cli.INITIAL_STATE_KEYS)


def test_reference_outputs_refuses_a_directory_without_the_package(tmp_path, capsys):
    assert reference_outputs.main([str(tmp_path), str(tmp_path / "out")]) == 2
    assert "usage:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, flagged", [("cold-qubit", 5), ("pump-pure", 401)])
def test_meta_counts_the_rows_bounds_csv_flags(tmp_path, name, flagged):
    # a reference saturated by the search cap (pump-pure) or beyond
    # |beta_R| * spread = 700 (cold-qubit): meta.json reads each status from the
    # flags of the bound chain, so both files count the same rows
    args = dict(reference_outputs.runs(tmp_path))[name]
    out = tmp_path / "out"
    assert cli.main(["run", *args, "--out", str(out)]) == 0
    with open(out / "bounds.csv", newline="") as fh:
        flags = [row["flags"].split(";") for row in csv.DictReader(fh)]
    meta = json.loads((out / "meta.json").read_text())
    assert meta["diagnostics"]["saturated_samples"] == flagged
    assert sum("saturated" in f for f in flags) == flagged
    assert meta["diagnostics"]["failed_beta_solves"] == sum("beta_solve_failed" in f
                                                            for f in flags) == 0
    assert meta["reference"]["saturated"] is ("saturated" in flags[0]) is True
    assert meta["flags"]["degenerate_hamiltonian_spectrum"] is ("degenerate_spectrum" in flags[0])

import ast
import csv
import dataclasses
import json
import math
import re
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from full_width import full_trajectory, states_of

from landauer_bounds import cli, linalg, lindblad, outputs, plotting, qstate, thermo
from landauer_bounds.errors import SchemaError


def run_cli(*args):
    return cli.main(list(args))


def read_meta(out_dir):
    return json.loads((out_dir / "meta.json").read_text())


def dumps_overflowing(obj):
    """json.dumps of obj with each string "1e400" or "-1e400" written as that
    number literal, which overflows to an infinite float when read back."""
    return re.sub(r'"(-?1e400)"', r"\1", json.dumps(obj))


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


class LapackEigensolverCalled(Exception):
    pass


def test_qubit_run_makes_no_lapack_eigensolver_call(tmp_path, monkeypatch):
    # linalg solves a stack of 2 x 2 matrices in closed form, so a driven-qubit run
    # never pages in LAPACK's eigensolver; the 9-level pump still goes to LAPACK.
    def refused(*args, **kwargs):
        raise LapackEigensolverCalled

    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refused)
    assert run_cli("run", "--scenario", "fig2", "--out", str(tmp_path / "fig2"),
                   "--t-end", "2", "--samples", "21", "--plots") == 0
    with pytest.raises(LapackEigensolverCalled):
        run_cli("run", "--scenario", "fig1", "--out", str(tmp_path / "fig1"),
                "--t-end", "2", "--samples", "21")


class ComplexMatmulCalled(Exception):
    pass


def test_qubit_run_makes_no_complex_matmul(tmp_path, monkeypatch):
    # linalg.matmul multiplies two 2 x 2 stacks in closed form, so a driven-qubit run
    # never pages in BLAS's complex matrix product. The patch sees only products
    # that look np.matmul up, as linalg.matmul does; the @ operator does not, and
    # the source check below keeps it off operator stacks.
    matmul = np.matmul

    def real_only(*args, **kwargs):
        if any(np.iscomplexobj(arg) for arg in args):
            raise ComplexMatmulCalled
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", real_only)
    assert run_cli("run", "--scenario", "fig2", "--out", str(tmp_path / "fig2"),
                   "--t-end", "2", "--samples", "21", "--plots") == 0


# Every matrix product in the package outside linalg, by module and function, and
# why it is no complex product of operator stacks.
BLAS_PRODUCTS = {
    ("lindblad", "_rk4_step_maps"): "real step maps",
    ("lindblad", "_driven_maps"): "real step maps",
    ("lindblad", "_undriven_maps"): "powers of a real step map",
    ("lindblad", "Propagation._block"): "real maps times real coordinates",
    ("models", "build_rydberg"): "9-level operators times the Bell vector",
    ("qstate", "fidelity_pure"): "vector, matrix, vector",
    ("thermo", "_chain"): "real weights times real levels",
}


def blas_products(path):
    """(module, function) of each @, np.matmul, np.dot ... in a source file."""
    names = {"matmul", "dot", "vdot", "inner", "tensordot", "matrix_power", "multi_dot"}
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = [*scope, node.name]
        if (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
                or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in names and ast.unparse(node.func.value) != "linalg"):
            found.add((path.stem, ".".join(scope)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), [])
    return found


def test_linalg_is_the_one_module_that_multiplies_operator_stacks():
    package = Path(linalg.__file__).parent
    found = set().union(*(blas_products(path) for path in package.glob("*.py")
                          if path.name != "linalg.py"))
    assert found == set(BLAS_PRODUCTS)


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
    # nor a file that the sweep writes into --out itself
    {"top_level": {"sweep": [{"name": "meta.json"}]},
     "message": "sweep entry name 'meta.json' is a file of the sweep itself"},
    {"top_level": {"sweep": [{"name": "a"}, {"name": "sweep.svg"}]}, "args": ["--plots"],
     "message": "sweep entry name 'sweep.svg' is a file of the sweep itself"},
    # nor the temporary name under which the sweep writes one
    {"top_level": {"sweep": [{"name": "a"}, {"name": "meta.json.partial"}]},
     "message": "sweep entry name 'meta.json.partial' is a file of the sweep itself"},
    {"top_level": {"sweep": [{"name": "a"}, {"name": "sweep.svg.partial"}]},
     "args": ["--plots"],
     "message": "sweep entry name 'sweep.svg.partial' is a file of the sweep itself"},
    # a pure start has S = 0, where beta_R(0) saturates: the driven chain needs S > 0
    {"initial_state": {"kind": "pure", "vector": [[1.0, 0.0], [0.0, 0.0]]},
     "top_level": {"integrator": {"dt": 0.001, "t_end": 1.0, "n_samples": 3}}},
    # on the undriven pump a pure start runs, so only the booleans can stop it
    {"initial_state": {"kind": "pure", "vector": [[True, False]] + [[False, False]] * 8},
     "top_level": {"model": "rydberg", "model_params": {}, "bath_T": None,
                   "integrator": {"dt": 0.01, "t_end": 1.0, "n_samples": 3}}},
    # json.dumps writes NaN and Infinity, which no configuration number may be
    {"top_level": {"model": "rydberg", "model_params": {"gamma": math.nan}, "bath_T": None,
                   "integrator": {"dt": 0.01, "t_end": 1.0, "n_samples": 3}}},
    {"top_level": {"bath_T": math.inf}},
    # nor may a literal that overflows to an infinite float
    {"top_level": {"model": "rydberg", "model_params": {"gamma": "1e400"}, "bath_T": None,
                   "integrator": {"dt": 0.01, "t_end": 1.0, "n_samples": 3}}},
    {"top_level": {"bath_T": "1e400"}},
    {"initial_state": {"kind": "sorted_ascending_diagonal", "beta": "-1e400"}},
    # every JSON value is read as its kind, and the message names the field
    {"top_level": {"name": 5}, "message": "name must be a string, got 5"},
    {"initial_state": [["kind", "gibbs"], ["beta", 1.0]],
     "message": "initial_state must be an object, got [['kind', 'gibbs'], ['beta', 1.0]]"},
    {"top_level": {"model": 5}, "message": "model must be a string, got 5"},
    {"top_level": {"model": "custom", "custom_model_file": 5, "model_params": {}},
     "message": "custom_model_file must be a string, got 5"},
    {"top_level": {"sweep": [{"name": "a", "overrides": [["model_params", {"tau": 5.0}]]}]},
     "message": "sweep entry 0 overrides must be an object, got [['model_params',"},
    # a model file next to a built-in model would be ignored: the run would not be
    # the model the file describes
    {"top_level": {"custom_model_file": "does-not-exist.json"},
     "message": "custom_model_file is read only for model 'custom', not 'erasure'"},
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
        "sweep-name-meta-json", "sweep-name-sweep-svg", "sweep-name-meta-json-partial",
        "sweep-name-sweep-svg-partial",
        "driven-pure-start", "pure-vector-booleans", "rydberg-gamma-nan", "bath-T-infinity",
        "rydberg-gamma-1e400", "bath-T-1e400", "sorted-beta-minus-1e400", "name-not-a-string",
        "initial-state-pairs", "model-not-a-string", "custom-model-file-not-a-string",
        "sweep-overrides-a-list", "custom-model-file-with-built-in-model"])
def test_bad_model_input_exits_3_with_one_line(tmp_path, capsys, change):
    raw = cli.scenario_defaults("fig2")
    raw["model_params"].update(change.get("model_params", {}))
    raw["initial_state"] = change.get("initial_state", raw["initial_state"])
    raw.update(change.get("top_level", {}))
    config = tmp_path / "bad.json"
    config.write_text(dumps_overflowing(change.get("config", raw)))
    assert run_cli("run", "--config", str(config), "--out", str(tmp_path / "out"),
                   *change.get("args", [])) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error: " + change.get("message", ""))
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


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
    # call per block of samples, and no eigh per sample. Every entropy after
    # propagate comes from its spectra and the energy-basis populations, so
    # no state is decomposed again. Each block's complex stack is formed once,
    # for its spectra, and rotated into the energy basis; fig1 forms one more
    # for the final Bell fidelity.
    calls = dict.fromkeys(["eigh", "state_functionals", "von_neumann_entropy",
                           "relative_entropy", "density_matrices"], 0)

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(linalg, "eigh")
    for name in ("state_functionals", "von_neumann_entropy", "relative_entropy"):
        count(qstate, name)
    for module in (lindblad, thermo, outputs):
        count(module, "density_matrices")
    monkeypatch.setattr(lindblad, "SAMPLE_BLOCK", 8)
    for scenario in ("fig1", "fig2"):
        raw = cli.scenario_defaults(scenario)
        raw["integrator"].update(t_end=2.0, n_samples=21)
        config = cli.build_config(raw, scenario, tmp_path, plots=False)
        calls.update(dict.fromkeys(calls, 0))
        result = cli.run_pipeline(config)
        n = len(result.trajectory.times)
        assert n == 21
        blocks = math.ceil(n / lindblad.SAMPLE_BLOCK)
        assert calls["state_functionals"] == blocks == 3
        assert calls["density_matrices"] == blocks + (scenario == "fig1")
        assert calls["von_neumann_entropy"] == calls["relative_entropy"] == 0
        assert calls["eigh"] <= 5


@pytest.mark.parametrize("scenario", ["fig1", "fig2"])
def test_sample_blocks_do_not_change_results(tmp_path, monkeypatch, scenario):
    raw = cli.scenario_defaults(scenario)
    raw["integrator"].update(t_end=2.0, n_samples=20)
    config = cli.build_config(raw, scenario, tmp_path, plots=False)
    whole = cli.run_pipeline(config)
    monkeypatch.setattr(lindblad, "SAMPLE_BLOCK", 7)
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


@pytest.mark.parametrize("scenario, changes, error", [
    ("fig2", {"integrator": {"dt": 10.0, "t_end": 10.0, "n_samples": 2}},
     "StabilityError: state norm 9.244e+02 at t=10.0"),
    # the pump a hundred times faster than fig1: one RK4 step of 0.4 leaves the
    # state with a negative eigenvalue, while its norm stays bounded
    ("fig1", {"model_params": {"omega2": 2.0, "omega": 1.0, "gamma": 3.0},
              "integrator": {"dt": 0.4, "t_end": 2.0, "n_samples": 6}},
     "PositivityError: min eigenvalue -3.458e-03 at t=0.4"),
    # a negative eigenvalue beyond the entropies' tolerance of 1e-9 is refused
    # by propagate, with the time of its sample
    ("fig1", {"model_params": {"omega2": 2.0, "omega": 1.0, "gamma": 3.0},
              "integrator": {"dt": 0.08, "t_end": 2.0, "n_samples": 26}},
     "PositivityError: min eigenvalue -6.628e-07 at t=0.08"),
    # an unstable run whose trace reaches 0 before its norm check
    ("fig2", {"model_params": {"gamma": 166.0}, "integrator": {"dt": 0.01, "t_end": 1.0,
                                                                 "n_samples": 5}},
     "StabilityError: state norm 3.489e+03 at t=0.25"),
], ids=["stability", "positivity", "positivity-below-entropy-tolerance", "stability-zero-trace"])
def test_unstable_step_exits_1(tmp_path, capsys, scenario, changes, error):
    raw = {**cli.scenario_defaults(scenario), **changes}
    config = tmp_path / "unstable.json"
    config.write_text(json.dumps(raw))
    with pytest.warns(UserWarning, match="accuracy may degrade") as caught:
        code = run_cli("run", "--config", str(config), "--out", str(tmp_path / "out"))
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert code == 1
    assert capsys.readouterr().err == f"runtime error: {error}\n"


# fig2 with gamma = 166 at 51 samples: the first state norm above 10 is at sample 9,
# in the fifth block of two samples, after four blocks' rows were written.
UNSTABLE_LATE = {"model_params": {"gamma": 166.0},
                 "integrator": {"dt": 0.01, "t_end": 1.0, "n_samples": 51}}
UNSTABLE_LATE_ERROR = "runtime error: StabilityError: state norm 1.062e+01 at t=0.18\n"


def test_run_that_fails_in_a_later_block_leaves_no_outputs(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(lindblad, "SAMPLE_BLOCK", 2)
    raw = cli.scenario_defaults("fig2")
    raw["model_params"].update(UNSTABLE_LATE["model_params"])
    raw["integrator"] = UNSTABLE_LATE["integrator"]
    config = tmp_path / "unstable.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out" / "run"
    with pytest.warns(UserWarning, match="accuracy may degrade"):
        assert run_cli("run", "--config", str(config), "--out", str(out)) == 1
    assert capsys.readouterr().err == UNSTABLE_LATE_ERROR
    assert not (tmp_path / "out").exists()  # nor the directories made for it
    # into a directory that exists, a failed run leaves the files it holds
    out.mkdir(parents=True)
    (out / "bounds.csv").write_text("an earlier run's\n")
    with pytest.warns(UserWarning, match="accuracy may degrade"):
        assert run_cli("run", "--config", str(config), "--out", str(out)) == 1
    assert [p.name for p in out.iterdir()] == ["bounds.csv"]
    assert (out / "bounds.csv").read_text() == "an earlier run's\n"


def test_sweep_keeps_the_entries_finished_before_one_fails(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(lindblad, "SAMPLE_BLOCK", 2)
    raw = cli.scenario_defaults("fig2")
    raw["integrator"].update(t_end=1.0, n_samples=5)
    raw["sweep"] = [{"name": "a"}, {"name": "b", "overrides": UNSTABLE_LATE}]
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="accuracy may degrade"):
        assert run_cli("run", "--config", str(config), "--out", str(out)) == 1
    assert capsys.readouterr().err == UNSTABLE_LATE_ERROR
    assert sorted(p.name for p in out.iterdir()) == ["a"]
    assert sorted(p.name for p in (out / "a").iterdir()) == ["bounds.csv", "meta.json",
                                                            "trajectory.csv"]


@pytest.mark.parametrize("out, sweep", [
    ("afile", False), ("afile/sub", False), ("afile", True), ("new/" + "x" * 300, False),
], ids=["run-into-a-file", "run-below-a-file", "sweep-below-a-file", "run-name-too-long"])
def test_output_directory_that_cannot_be_made_exits_3(tmp_path, capsys, out, sweep):
    (tmp_path / "afile").write_text("a file\n")
    raw = cli.scenario_defaults("fig2")
    raw["integrator"] = {"dt": 0.01, "t_end": 1.0, "n_samples": 3}
    if sweep:
        raw["sweep"] = [{"name": "tau=5"}]
    config = tmp_path / "run.json"
    config.write_text(json.dumps(raw))
    assert run_cli("run", "--config", str(config), "--out", str(tmp_path / out)) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot make output directory {tmp_path / out}: ")
    assert err.count("\n") == 1
    # the directories made before the one that failed are removed too
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "run.json"]
    assert (tmp_path / "afile").read_text() == "a file\n"


@pytest.mark.parametrize("scenario, taken, flags", [
    ("fig2", "meta.json", []), ("fig2", "bounds.csv", []), ("fig2", "bounds.svg", ["--plots"]),
    ("fig2", "trajectory.csv.partial", []), ("figS1", "meta.json", []),
    ("figS1", "sweep.svg", ["--plots"]),
], ids=["run-meta-json", "run-bounds-csv", "run-bounds-svg", "run-trajectory-csv-partial",
        "sweep-meta-json", "sweep-sweep-svg"])
def test_output_file_that_is_a_directory_exits_3_before_running(tmp_path, capsys, monkeypatch,
                                                                   scenario, taken, flags):
    def no_propagation(*args, **kwargs):
        raise RuntimeError("propagate must not run")

    monkeypatch.setattr(cli, "propagate", no_propagation)
    out = tmp_path / "out"
    (out / taken).mkdir(parents=True)
    assert run_cli("run", "--scenario", scenario, "--out", str(out), "--t-end", "1",
                   "--samples", "3", *flags) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot write output file ")
    assert err.count("\n") == 1
    assert [p.name for p in out.iterdir()] == [taken]
    assert not any((out / taken).iterdir())


def test_sweep_entries_are_validated_before_any_runs(tmp_path, capsys):
    raw = cli.scenario_defaults("fig2")
    raw["integrator"] = {"dt": 0.01, "t_end": 1.0, "n_samples": 3}
    raw["sweep"] = [{"name": "a", "overrides": {}},
                    {"name": "b", "overrides": {"integrator": {"dt": "x"}}}]
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(config), "--out", str(out)) == 3
    assert capsys.readouterr().err.count("\n") == 1
    assert not (out / "a").exists()


@pytest.mark.parametrize("overrides", [
    {"model_params": {"tua": 5.0}},
    {"model_params": {"tau": 0.0}},
    {"initial_state": {"kind": "pure"}},
    {"initial_state": {"kind": "pure", "vector": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}},
    {"initial_state": {"kind": "pure", "vector": [[1.0, 0.0], [0.0, 0.0]]}},
    {"initial_state": {"kind": "warm"}},
    # an entry is one run: its overrides cannot open a sweep of their own
    {"sweep": [{"name": "inner"}]},
    {"model_params": {"gamma": math.nan}},
    {"model_params": {"gamma": "1e400"}},
    {"initial_state": {"kind": "sorted_ascending_diagonal", "beta": "-1e400"}},
    {"custom_model_file": "does-not-exist.json"},
], ids=["model-params-typo", "tau-zero", "pure-without-vector", "pure-vector-length",
        "driven-pure-start", "unknown-initial-state", "nested-sweep", "gamma-nan",
        "gamma-1e400", "sorted-beta-minus-1e400", "custom-model-file-with-built-in-model"])
def test_bad_second_sweep_entry_stops_the_run_before_the_first(tmp_path, capsys, overrides):
    # the model and initial state of every entry are built with the configuration
    # from a start with no key besides its kind, so that an entry's initial_state
    # carries only the keys its overrides give it
    raw = cli.scenario_defaults("fig2")
    raw["initial_state"] = {"kind": "maximally_mixed"}
    raw["integrator"] = {"dt": 0.01, "t_end": 1.0, "n_samples": 11}
    raw["sweep"] = [{"name": "a", "overrides": {}}, {"name": "b", "overrides": overrides}]
    config = tmp_path / "sweep.json"
    config.write_text(dumps_overflowing(raw))
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(config), "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert not (out / "a").exists()


def test_command_line_integrator_values_reach_every_sweep_entry(tmp_path):
    config = cli.build_config(cli.scenario_defaults("figS1"), "figS1", tmp_path, False,
                              {"dt": 0.05, "n_samples": 3})
    assert [name for name, _ in config.runs] == ["tau=5", "tau=10", "tau=20"]
    for name, entry in config.runs:
        assert isinstance(entry, cli.ScenarioConfig) and (entry.dt, entry.n_samples) == (0.05, 3)
        assert entry.out_dir == tmp_path / name and entry.name == f"figS1/{name}"
    assert [entry.t_end for _, entry in config.runs] == [5.0, 10.0, 20.0]


@pytest.mark.parametrize("start, recorded", [
    ({"kind": "maximally_mixed"}, {"kind": "maximally_mixed"}),
    ({"kind": "pure", "vector": [[0.0, 0.0], [1.0, 0.0]] + [[0.0, 0.0]] * 7},
     {"kind": "pure", "vector": [[0.0, 0.0], [1.0, 0.0]] + [[0.0, 0.0]] * 7}),
    ({"beta": 2.0}, {"kind": "gibbs", "beta": 2.0}),
], ids=["maximally-mixed", "pure", "beta-merges"])
def test_sweep_entry_may_switch_its_start_kind(tmp_path, start, recorded):
    # an initial_state override naming a kind replaces the gibbs base's start whole
    raw = cli.scenario_defaults("fig1")
    raw["integrator"] = {"dt": 0.01, "t_end": 1.0, "n_samples": 3}
    raw["sweep"] = [{"name": "a"}, {"name": "b", "overrides": {"initial_state": start}}]
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(config), "--out", str(out)) == 0
    assert read_meta(out / "a")["config"]["initial_state"] == {"kind": "gibbs", "beta": 30.0}
    assert read_meta(out / "b")["config"]["initial_state"] == recorded


def test_sorted_start_on_a_degenerate_level_exits_3(tmp_path, capsys):
    # H = diag(0, 0, 1) at beta = 1: the sorted populations 0.155 and 0.422 would
    # share the degenerate level, where any basis is an eigenbasis
    (tmp_path / "m.json").write_text(json.dumps({
        "dim": 3,
        "hamiltonian": {"re": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]},
        "channels": [{"rate": 0.1, "operator": {"re": [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0],
                                                       [0.0, 0.0, 0.0]]}}],
    }))
    config = tmp_path / "sorted.json"
    config.write_text(json.dumps({
        "model": "custom", "custom_model_file": str(tmp_path / "m.json"),
        "initial_state": {"kind": "sorted_ascending_diagonal", "beta": 1.0},
        "integrator": {"dt": 0.01, "t_end": 1.0, "n_samples": 3},
    }))
    assert run_cli("run", "--config", str(config), "--out", str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error: invalid initial_state of kind"
                          " 'sorted_ascending_diagonal'")
    assert "degenerate level" in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


DAMPED_QUBIT = {
    "dim": 2,
    "hamiltonian": {"re": [[-0.5, 0.0], [0.0, 0.5]]},
    "channels": [{"rate": 0.4, "operator": {"re": [[0.0, 1.0], [0.0, 0.0]]}}],
}


@pytest.mark.parametrize("scenario, change", [
    ("fig1", {"model_params": {"gamma": 1e160}}),
    ("fig2", {"model_params": {"gamma": 1e160}}),
    (None, {"channels": [{"rate": 1e160, "operator": {"re": [[0.0, 1.0], [0.0, 0.0]]}}]}),
    (None, {"hamiltonian": {"re": [[-0.5, 1e300], [1e300, 0.5]]}}),
], ids=["fig1-gamma-1e160", "fig2-gamma-1e160", "custom-rate-1e160", "custom-hamiltonian-1e300"])
def test_non_finite_step_map_is_refused_by_name(tmp_path, capsys, scenario, change):
    # the step maps overflow although every input is finite; a NaN trace-row
    # defect passes a `>` test, and eigvals refuses a non-finite map with a
    # raw LinAlgError
    if scenario is None:
        (tmp_path / "m.json").write_text(json.dumps({**DAMPED_QUBIT, **change}))
        raw = {"model": "custom", "custom_model_file": str(tmp_path / "m.json"),
               "initial_state": {"kind": "gibbs", "beta": 2.0}}
    else:
        raw = cli.scenario_defaults(scenario)
        raw["model_params"].update(change["model_params"])
    raw["integrator"] = {"dt": 0.01, "t_end": 1.0, "n_samples": 5}
    config = tmp_path / "overflow.json"
    config.write_text(json.dumps(raw))
    with pytest.warns(UserWarning, match="accuracy may degrade") as caught:
        code = run_cli("run", "--config", str(config), "--out", str(tmp_path / "out"))
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert code == 1
    err = capsys.readouterr().err
    assert err == "runtime error: StabilityError: non-finite step map at t=0.01\n"


@pytest.mark.parametrize("model_file, message", [
    (None, "custom model file {bad}: "),
    ({"dim": 2, "hamiltonain": DAMPED_QUBIT["hamiltonian"]}, "custom model file {bad}: "),
    # one row would broadcast to [[1, 0], [1, 0]] if added to the default "im"
    ({"dim": 2, "hamiltonian": {"re": [[1.0, 0.0]]}}, "custom model file {bad}: "),
    ({"dim": 2, "hamiltonian": {"re": [[0.0, 1.0], [0.0, 0.0]]}},
     "custom model file {bad}: Hamiltonian "),
    # the Gibbs entropy of H = I / 2 is ln 2 at every beta, so no beta_R(0)
    # matches S(rho0) and no bound of the run is defined
    ({**DAMPED_QUBIT, "hamiltonian": {"re": [[0.5, 0.0], [0.0, 0.5]]}},
     "no reference temperature beta_R(0) for H(0): Hamiltonian proportional to identity"),
    # json.dumps writes Infinity and NaN, which no model number may be, and
    # 1e400 and -1e400 overflow to infinite floats
    ({**DAMPED_QUBIT, "channels": [{"rate": math.inf, "operator": {"re": [[0.0, 1.0],
                                                                        [0.0, 0.0]]}}]},
     "custom model file {bad}: channel 0 rate must be a finite number, got inf"),
    ({**DAMPED_QUBIT, "hamiltonian": {"re": [[-0.5, 0.0], [0.0, math.nan]]}},
     "custom model file {bad}: hamiltonian re entry (1, 1) must be a finite number, got nan"),
    ({**DAMPED_QUBIT, "channels": [{"rate": "1e400", "operator": {"re": [[0.0, 1.0],
                                                                         [0.0, 0.0]]}}]},
     "custom model file {bad}: channel 0 rate must be a finite number, got inf"),
    ({**DAMPED_QUBIT, "hamiltonian": {"re": [["-1e400", 0.0], [0.0, 0.5]]}},
     "custom model file {bad}: hamiltonian re entry (0, 0) must be a finite number, got -inf"),
    # every value is read as its kind, as in the configuration: no numeric
    # strings or booleans, integers only where an integer is meant
    ({**DAMPED_QUBIT, "channels": [{"rate": "0.4", "operator": {"re": [[0.0, 1.0],
                                                                       [0.0, 0.0]]}}]},
     "custom model file {bad}: channel 0 rate must be a finite number, got '0.4'"),
    ({**DAMPED_QUBIT, "hamiltonian": {"re": [["-0.5", 0.0], [0.0, 0.5]]}},
     "custom model file {bad}: hamiltonian re entry (0, 0) must be a finite number, got '-0.5'"),
    ({**DAMPED_QUBIT, "channels": [{"rate": 0.4, "operator": {"re": [[0.0, True],
                                                                     [False, 0.0]]}}]},
     "custom model file {bad}: channel 0 operator re entry (0, 1) must be a finite number,"
     " got True"),
    ({**DAMPED_QUBIT, "dim": 2.9}, "custom model file {bad}: dim must be an integer, got 2.9"),
    ({**DAMPED_QUBIT, "dim": "2"}, "custom model file {bad}: dim must be an integer, got '2'"),
    ({**DAMPED_QUBIT, "channels": {"rate": 1}},
     "custom model file {bad}: channels must be a list, got {{'rate': 1}}"),
    ({**DAMPED_QUBIT, "hamiltonian": {"re": [[-0.5, 0.0], 0.5]}},
     "custom model file {bad}: hamiltonian re row 1 must be a list, got 0.5"),
    # "im" alone may default to zeros; "re" is required
    ({**DAMPED_QUBIT, "channels": [{"rate": 0.4, "operator": {"Re": [[0.0, 1.0],
                                                                     [0.0, 0.0]]}}]},
     "custom model file {bad}: channel 0 operator has unknown key 'Re', allowed: im, re"),
    # an integral dim far beyond the file's rows is refused by those rows, before
    # any d x d default is built
    ({**DAMPED_QUBIT, "dim": 1e20},
     "custom model file {bad}: hamiltonian re must be 100000000000000000000 rows of"),
    # a misspelled key would drop what it holds: here every jump, a channel's
    # bath, or the imaginary part of a matrix
    ({"dim": 2, "hamiltonian": DAMPED_QUBIT["hamiltonian"], "chanels": DAMPED_QUBIT["channels"]},
     "custom model file {bad}: the file has unknown key 'chanels', allowed: channels, dim,"
     " hamiltonian"),
    ({**DAMPED_QUBIT, "channels": [{**DAMPED_QUBIT["channels"][0], "bath_T": 0.5}]},
     "custom model file {bad}: channel 0 has unknown key 'bath_T', allowed: operator, rate"),
    ({**DAMPED_QUBIT, "hamiltonian": {"re": [[-0.5, 0.0], [0.0, 0.5]],
                                      "Im": [[0.0, -0.1], [0.1, 0.0]]}},
     "custom model file {bad}: hamiltonian has unknown key 'Im', allowed: im, re"),
], ids=["missing-file", "bad-key", "wrong-shape", "non-hermitian",
        "hamiltonian-proportional-to-identity", "rate-infinity", "hamiltonian-nan",
        "rate-1e400", "hamiltonian-minus-1e400", "rate-string", "hamiltonian-string",
        "operator-booleans", "dim-fractional", "dim-string", "channels-an-object",
        "row-not-a-list", "re-missing", "dim-1e20", "file-unknown-key", "channel-unknown-key",
        "matrix-unknown-key"])
@pytest.mark.parametrize("second_entry", [False, True], ids=["run", "second-sweep-entry"])
def test_bad_custom_model_file_exits_3_with_one_line(tmp_path, capsys, model_file, message,
                                                     second_entry):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(DAMPED_QUBIT))
    if model_file is not None:
        bad.write_text(dumps_overflowing(model_file))
    raw = {"model": "custom", "custom_model_file": str(bad),
           "initial_state": {"kind": "maximally_mixed"},
           "integrator": {"dt": 0.01, "t_end": 1.0, "n_samples": 3}}
    if second_entry:
        raw["custom_model_file"] = str(good)
        raw["sweep"] = [{"name": "a"}, {"name": "b", "overrides": {"custom_model_file": str(bad)}}]
    config = tmp_path / "custom.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(config), "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error: " + message.format(bad=bad))
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("change, message", [
    ({"integrator": {"dt": 0.01, "t_end": 1.0, "n_samples": 3, "n_sample": 5}},
     "integrator has unknown key 'n_sample', allowed: dt, n_samples, t_end"),
    ({"initial_state": {"kind": "gibbs", "beta": 2.0, "vector": [[1.0, 0.0], [0.0, 0.0]]}},
     "initial_state of kind 'gibbs' has unknown key 'vector', allowed: beta, kind"),
    ({"initial_state": {"kind": "sorted_ascending_diagonal", "beta": 2.0, "temperature": 0.5}},
     "initial_state of kind 'sorted_ascending_diagonal' has unknown key 'temperature',"
     " allowed: beta, kind"),
    ({"initial_state": {"kind": "pure", "vector": [[0.0, 0.0], [1.0, 0.0]],
                        "vectr": [[1.0, 0.0], [0.0, 0.0]]}},
     "initial_state of kind 'pure' has unknown key 'vectr', allowed: kind, vector"),
    ({"initial_state": {"kind": "maximally_mixed", "beta": 2.0}},
     "initial_state of kind 'maximally_mixed' has unknown key 'beta', allowed: kind"),
    # a custom model reads no parameter, so meta.json would record one no run used
    ({"model_params": {"gamma": 5.0}}, "model_params has unknown key 'gamma', allowed: none"),
    # an entry is checked after its overrides are merged into the configuration
    ({"sweep": [{"name": "a"}, {"name": "b", "overrides": {"integrator": {"n_sampels": 5}}}]},
     "integrator has unknown key 'n_sampels', allowed: dt, n_samples, t_end"),
], ids=["integrator", "gibbs", "sorted-ascending-diagonal", "pure", "maximally-mixed",
        "custom-model-params", "sweep-overrides"])
def test_unknown_key_exits_3_naming_it_and_its_object(tmp_path, capsys, change, message):
    # each key a run would drop: the configuration runs without it
    (tmp_path / "m.json").write_text(json.dumps(DAMPED_QUBIT))
    raw = {"model": "custom", "custom_model_file": str(tmp_path / "m.json"),
           "initial_state": {"kind": "gibbs", "beta": 2.0},
           "integrator": {"dt": 0.01, "t_end": 1.0, "n_samples": 3}, **change}
    config = tmp_path / "unknown.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(config), "--out", str(out)) == 3
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out.exists()


def test_custom_matrix_model(tmp_path):
    model_file = tmp_path / "damping.json"
    model_file.write_text(json.dumps(DAMPED_QUBIT))
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


def thermal_channels(temperature, gamma=0.1, omega=1.0):
    """Emission and absorption of a qubit with gap omega coupled to a bath."""
    n_bath = 1.0 / math.expm1(omega / temperature)
    return [{"rate": gamma * (n_bath + 1.0), "operator": {"re": [[0.0, 1.0], [0.0, 0.0]]}},
            {"rate": gamma * n_bath, "operator": {"re": [[0.0, 0.0], [1.0, 0.0]]}}]


@pytest.mark.parametrize("bath_T, code", [(0.5, 2), (5.0, 0), (None, 0)],
                         ids=["cold-bath-T", "hot-bath-T", "no-bath"])
def test_qubit_between_two_baths(tmp_path, bath_T, code):
    # Baths at T = 0.5 and T = 5 warm a qubit that starts thermal at 0.5. The
    # first-law bounds need no bath and hold; the Landauer bound -T dS <= Q
    # holds only for a bath temperature the environment really has.
    (tmp_path / "m.json").write_text(json.dumps({
        "dim": 2, "hamiltonian": {"re": [[-0.5, 0.0], [0.0, 0.5]]},
        "channels": thermal_channels(0.5) + thermal_channels(5.0)}))
    config = tmp_path / "two-baths.json"
    config.write_text(json.dumps({
        "model": "custom", "custom_model_file": str(tmp_path / "m.json"),
        "initial_state": {"kind": "gibbs", "beta": 2.0},
        "integrator": {"dt": 0.01, "t_end": 40.0, "n_samples": 41}, "bath_T": bath_T}))
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(config), "--out", str(out)) == code
    verdicts = read_meta(out)["verdicts"]
    for name in ("heat_upper", "gap_nonneg", "gap_identity"):
        assert verdicts[name]["holds"]
    if bath_T is None:
        assert "lp_lower" not in verdicts
    else:
        assert verdicts["lp_lower"]["holds"] == (bath_T == 5.0)
    if bath_T == 0.5:
        assert verdicts["lp_lower"]["worst_slack"] == pytest.approx(-0.137, abs=1e-3)


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
    svg = plotting.emit_plots(*plotting.read_bounds_csv(path), 1.0)
    assert svg.startswith("<?xml")
    assert "<polyline" in svg
    import xml.dom.minidom
    xml.dom.minidom.parseString(svg)


def test_emit_plots_rejects_unknown_schema(tmp_path):
    path = tmp_path / "bounds.csv"
    path.write_text("a,b,c\r\n1,2,3\r\n")
    with pytest.raises(SchemaError):
        plotting.emit_plots(*plotting.read_bounds_csv(path), 1.0)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(SchemaError):
        plotting.emit_plots(*plotting.read_bounds_csv(empty), 1.0)


def test_negative_branch_through_config(tmp_path):
    config = tmp_path / "neg.json"
    raw = cli.scenario_defaults("fig2")
    del raw["model_params"]  # erasure parameters, which a custom model does not take
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


def test_run_memory_does_not_grow_with_its_samples(tmp_path):
    # fig1 over 4,000 steps at N = 1,000 and 4N = 4,000 samples, without plots: a
    # run propagates, evaluates and writes one block of samples at a time, and
    # keeps of every sample only its time, its step index and its trace-drift
    # term. Holding the (m, r + 2) propagated rows of the 9-level pump, as a run
    # did before it streamed its blocks, adds 3N x 41 x 8 bytes (0.98 MB) alone.
    def run(n):
        return cli.main(["run", "--scenario", "fig1", "--out", str(tmp_path / str(n)),
                         "--t-end", "40", "--samples", str(n)])

    assert run(11) == 0  # lazy set-up outside the measurement
    peaks = []
    for n in (1000, 4000):
        tracemalloc.start()
        try:
            current = tracemalloc.get_traced_memory()[0]
            assert run(n) == 0
            peaks.append(tracemalloc.get_traced_memory()[1] - current)
        finally:
            tracemalloc.stop()
    kept = 3 * 1000 * 3 * 8  # 3N samples more, three kept floats each
    assert peaks[1] - peaks[0] < kept + 50_000


def test_sweep_holds_one_finished_entry_at_a_time(tmp_path, monkeypatch):
    # Three erasure entries of 1,501 samples, every step sampled, as the erase-sweep
    # benchmark runs them. When an entry starts, each finished one may hold only
    # its meta and the three bound columns the sweep chart draws, not its
    # trajectory, reference solves or its model's protocol terms.
    raw = cli.scenario_defaults("figS1")
    for entry in raw["sweep"]:
        tau = entry["overrides"]["model_params"]["tau"]
        entry["overrides"]["integrator"] = {"dt": tau / 1500, "t_end": tau, "n_samples": 1501}
    config = cli.build_config(raw, "sweep", tmp_path / "out", plots=True)
    held = []

    def traced_propagate(*args):
        held.append(tracemalloc.get_traced_memory()[0])
        return lindblad.propagation(*args)

    monkeypatch.setattr(cli, "propagate", traced_propagate)
    tracemalloc.start()
    try:
        with pytest.warns(UserWarning, match="accuracy may degrade"):  # tau = 20 only
            assert cli.run_scenario(config) == 0
    finally:
        tracemalloc.stop()
    columns = len(plotting.SWEEP_COLUMNS) * 1501 * 8
    assert all(later - earlier < columns + 50_000 for earlier, later in zip(held, held[1:]))
    assert (tmp_path / "out" / "sweep.svg").exists()


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
    traj = result.trajectory
    states = states_of(traj)
    d = states.shape[-1]
    header = ["t", "Q", "W", "min_eig"]
    header += [f"rho_{i}_{j}_re" for i in range(d) for j in range(i, d)]
    header += [f"rho_{i}_{j}_im" for i in range(d) for j in range(i + 1, d)]
    records = []
    for k, m in enumerate(states):
        rec = [traj.times[k], traj.heat[k], traj.work[k], traj.min_eigenvalues[k]]
        rec += [m[i, j].real for i in range(d) for j in range(i, d)]
        rec += [m[i, j].imag for i in range(d) for j in range(i + 1, d)]
        records.append(rec)
    reference_csv(path, header, records)


def reference_bounds_csv(result, path):
    """NaN is an empty cell in the optional columns and ``nan`` elsewhere."""
    undriven = result.config.kind == "undriven"
    columns = plotting.UNDRIVEN_COLUMNS if undriven else plotting.DRIVEN_COLUMNS
    table = result.bounds
    records = [[None if c in thermo.OPTIONAL_COLUMNS and math.isnan(table[c][k])
                else table[c][k] for c in columns[:-1]] + [";".join(table.flags[k])]
               for k in range(len(table.t))]
    reference_csv(path, columns, records)


def synthetic_trajectory(n, d, values):
    """A Trajectory of n d x d samples whose every number, each coordinate of its
    states included, is drawn from ``values``."""
    cells = np.resize(np.asarray(values, dtype=float), n * (4 + d * d))
    head, coordinates = cells[:4 * n].reshape(4, n), cells[4 * n:].reshape(n, d * d)
    spectra = np.broadcast_to(head[3][:, None], (n, d))  # only min_eig is written
    return full_trajectory(head[0], coordinates, head[1], head[2], spectra)


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
    return SimpleNamespace(config=SimpleNamespace(kind=kind),
                           bounds=thermo.Bounds(*columns, flags=flags),
                           trajectory=synthetic_trajectory(n, 3, SPECIAL_VALUES))


def split(table, names, size):
    """Consecutive blocks of ``size`` rows of a table whose fields ``names`` hold
    one row per sample, as a run hands them to the writers."""
    n = len(getattr(table, names[0]))
    return [dataclasses.replace(table, **{name: getattr(table, name)[i:i + size]
                                          for name in names})
            for i in range(0, n, size)]


TRAJECTORY_ROWS = ("times", "coordinates", "heat", "work", "spectra", "trace_drifts")
BOUNDS_ROWS = tuple(f.name for f in dataclasses.fields(thermo.Bounds))


def write_blocks(result, out, size):
    """trajectory.csv and bounds.csv of a result whose tables are cut by hand into
    blocks of ``size`` rows, each written by the run's per-block writers."""
    undriven = result.config.kind == "undriven"
    columns = plotting.UNDRIVEN_COLUMNS if undriven else plotting.DRIVEN_COLUMNS
    traj, table = result.trajectory, result.bounds
    header = outputs.trajectory_header(traj.spectra.shape[-1])
    (out / "trajectory.csv").write_bytes(header + b"".join(
        chunk for block in split(traj, TRAJECTORY_ROWS, size)
        for chunk in outputs.trajectory_rows(block)))
    (out / "bounds.csv").write_bytes(outputs.csv_header(columns) + b"".join(
        chunk for block in split(table, BOUNDS_ROWS, size)
        for chunk in outputs.bounds_rows(block, columns)))


@pytest.mark.parametrize("block", [None, 7], ids=["default-blocks", "blocks-of-7"])
@pytest.mark.parametrize("source", ["fig1_result", "fig2_result", "undriven", "driven"])
def test_csv_writers_match_per_cell_reference(tmp_path, request, monkeypatch, source, block):
    # a scenario's files as a run writes them, against the reference of the
    # whole-run result; a synthetic table's blocks as the writers get them
    new, old = tmp_path / "new", tmp_path / "old"
    new.mkdir()
    old.mkdir()
    scenario = source.endswith("_result")
    result = request.getfixturevalue(source) if scenario else synthetic_result(source, 40)
    if block is not None:
        monkeypatch.setattr(lindblad, "SAMPLE_BLOCK", block)
    if scenario:
        cli.write_outputs(dataclasses.replace(result.config, out_dir=new))
    else:
        # an infinite coordinate of a synthetic state makes NaN of 0 * inf in its rho
        # columns, in the writer and the reference alike
        with np.errstate(invalid="ignore"):
            write_blocks(result, new, lindblad.SAMPLE_BLOCK)
    with np.errstate(invalid="ignore"):
        reference_trajectory_csv(result, old / "trajectory.csv")
    reference_bounds_csv(result, old / "bounds.csv")
    for name in ("trajectory.csv", "bounds.csv"):
        assert (new / name).read_bytes() == (old / name).read_bytes(), name


def test_trajectory_writer_zero_columns_match_reference(tmp_path):
    # In blocks of 7: rho_0_0_re is +0.0 in every row, rho_0_1_re is -0.0 in
    # every row, and rho_1_1_re is +0.0 in the second block only.
    traj = synthetic_trajectory(20, 2, [0.25, -1 / 3, 1e16, 0.1])
    coordinates = traj.coordinates  # x_00, x_01, x_10 and x_11
    coordinates[:, 0] = 0.0
    coordinates[:, 1:3] = -0.0  # Re rho_01 is -0 only where Im rho_01 is signed negative too
    coordinates[7:14, 3] = 0.0
    (tmp_path / "new.csv").write_bytes(outputs.trajectory_header(2) + b"".join(
        chunk for block in split(traj, TRAJECTORY_ROWS, 7)
        for chunk in outputs.trajectory_rows(block)))
    reference_trajectory_csv(SimpleNamespace(trajectory=traj), tmp_path / "old.csv")
    written = (tmp_path / "new.csv").read_text().splitlines()
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    cells = [line.split(",") for line in written[1:]]
    column = written[0].split(",").index
    assert {row[column("rho_0_0_re")] for row in cells} == {"0"}
    assert {row[column("rho_0_1_re")] for row in cells} == {"-0"}
    assert [row[column("rho_1_1_re")] == "0" for row in cells] == [7 <= k < 14 for k in range(20)]


def test_fig1_csv_spans_more_than_one_block(fig1_result):
    # the byte comparison above then covers a full block and a partial one
    assert lindblad.SAMPLE_BLOCK < len(fig1_result.bounds) < 2 * lindblad.SAMPLE_BLOCK
    assert np.isnan(fig1_result.bounds.lp_lower).any()


@pytest.mark.parametrize("writer", ["trajectory", "bounds"])
def test_csv_writer_memory_stays_bounded(writer):
    # A writer yields its text a chunk of at most numtext._CHUNK numbers at a time,
    # and the trajectory writer forms its columns for one chunk of rows at a time.
    # Drained into a sink, one SAMPLE_BLOCK of 9 x 9 states then holds about 1.5 MB
    # at once as trajectory rows, one chunk's cells, and 0.7 MB as bound rows; the
    # text of the whole block joined at once held 2.0 MB.
    n = lindblad.SAMPLE_BLOCK
    rng = np.random.default_rng(0)
    values = rng.standard_normal(997)
    bounds = thermo.Bounds(*np.resize(values, (len(BOUNDS_ROWS) - 1, n)),
                           flags=[FLAG_SETS[k % len(FLAG_SETS)] for k in range(n)])
    traj = synthetic_trajectory(n, 9, values)
    tracemalloc.start()
    try:
        current = tracemalloc.get_traced_memory()[0]
        if writer == "trajectory":
            chunks = outputs.trajectory_rows(traj)
        else:
            chunks = outputs.bounds_rows(bounds, plotting.DRIVEN_COLUMNS)
        lines = sum(chunk.count(b"\r\n") for chunk in chunks)  # the sink keeps no chunk
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lines == n
    assert peak - current < 1.7e6


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

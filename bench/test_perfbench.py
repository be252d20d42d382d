"""Tests of the benchmark itself: config generation, span arithmetic, output
check, and a smoke run of every workload at reduced step counts."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import scenarios
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from landauer_bounds import cli  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_same_seed_gives_byte_identical_configs():
    code = ("import sys; sys.path.insert(0, 'bench'); import scenarios; "
            "sys.stdout.buffer.write(b''.join(scenarios.config_bytes(w, s) "
            "for w in scenarios.WORKLOADS for s in (0, 7)))")
    outputs = {
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, check=True,
                       env=dict(os.environ, PYTHONHASHSEED=hs)).stdout
        for hs in ("1", "2")
    }
    assert len(outputs) == 1
    for w in scenarios.WORKLOADS:
        assert scenarios.config_bytes(w, 7) != scenarios.config_bytes(w, 8)


def test_seed_zero_is_paper_parameters_and_seeds_keep_work_fixed():
    fig1, fig2 = cli.scenario_defaults("fig1"), cli.scenario_defaults("fig2")
    pump, erase = scenarios.scenario("pump", 0), scenarios.scenario("erase", 0)
    assert pump["model_params"] == fig1["model_params"]
    assert pump["initial_state"] == fig1["initial_state"]
    assert pump["integrator"] == {**fig1["integrator"], "n_samples": 4001}
    for key in ("model_params", "initial_state", "integrator", "bath_T"):
        assert erase[key] == fig2[key]
    sweep = scenarios.scenario("erase-sweep", 0)
    assert [e["overrides"]["model_params"]["tau"] for e in sweep["sweep"]] == [5.0, 10.0, 20.0]

    for w in scenarios.WORKLOADS:
        base, other = scenarios.scenario(w, 0), scenarios.scenario(w, 11)
        assert other["integrator"] == base["integrator"]
        assert other.get("sweep") == base.get("sweep")
        for key, val in base["model_params"].items():
            assert abs(other["model_params"][key] / val - 1.0) <= scenarios.JITTER
        if other["bath_T"] is not None:
            assert other["bath_T"] == 1.0 / other["model_params"]["bath_beta"]


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        ["root", 0, 100, -1],
        ["a", 10, 40, 0],
        ["b", 50, 70, 0],
        ["leaf", 20, 25, 1],
        ["leaf", 30, 38, 1],
        ["other-root", 200, 210, -1],
    ]
    assert tracing.self_times_ns(spans) == [50, 17, 20, 5, 8, 10]
    prof = tracing.profile(spans, {"n": 3})
    assert prof.calls == {"root": 1, "a": 1, "b": 1, "leaf": 2, "other-root": 1}
    assert prof.self_s["leaf"] == pytest.approx(13e-9)
    assert prof.total_s["a"] == pytest.approx(30e-9)
    assert sum(prof.self_s.values()) == pytest.approx(prof.root_s) == pytest.approx(110e-9)
    assert prof.span_count == 6 and prof.counts == {"n": 3}
    # Overlapping children are covered once; parts outside the parent do not count.
    assert tracing.covered_ns(0, 100, [(10, 30), (20, 40), (90, 120)]) == 40


def test_tampered_meta_counts_as_a_failed_run(tmp_path):
    config = scenarios.scenario("erase", 5, smoke=True)
    config_path = tmp_path / "config.json"
    config_path.write_bytes(scenarios.config_bytes("erase", 5, smoke=True))
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(config_path), "--out", str(out), "--plots"])
    assert checks.check_outputs("erase", config, out, code, False) == []
    values = checks.final_values(out)
    assert checks.compare_final(values, values, "erase") == []
    off = {k: v * (1 + 1e-6) + 1e-6 for k, v in values.items()}
    assert len(checks.compare_final(values, off, "erase")) == len(values)

    meta = json.loads((out / "meta.json").read_text())
    meta["verdicts"]["heat_upper"]["holds"] = False
    (out / "meta.json").write_text(json.dumps(meta))
    problems = checks.check_outputs("erase", config, out, code, False)
    assert any("heat_upper" in p for p in problems)
    runs = [run.Run(False, 1.0, 1.0, 1, []), run.Run(False, 1.0, 1.0, 1, problems)]
    assert run.outcome(runs) == (2, 1)


@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_smoke_run_traced(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1",
                  "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    assert list(result["metrics"]) == [m["name"] for m in spec["per_layer"]]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["lindblad.steps"] > 0 and metrics["thermo.rows"] > 0
    assert metrics["plotting.render.s"] > 0 and metrics["refsolve.solves"] > 0
    # One traced run: its layer self times and the time outside cli.main make up its wall time.
    layers = sum(v for k, v in metrics.items() if k.endswith(".s") and not k.startswith("trace."))
    assert layers + metrics["trace.outside_s"] == pytest.approx(metrics["trace.run_s"], rel=1e-9)


def test_smoke_run_untraced():
    proc = _bench("--workload", "pump", "--seed", "0", "--seconds", "0", "--trace", "0",
                  "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert result["correct"] and result["attempted"] == run.MIN_RUNS
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "pump", "--seed", "0", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

"""Session fixtures: the benchmark scenario runs are expensive, so the
acceptance criteria and several unit tests share one pipeline result each."""

from __future__ import annotations

import pytest

from landauer_bounds import build_erasure, build_rydberg
from landauer_bounds.cli import build_config, run_pipeline, scenario_defaults
from landauer_bounds.models import ErasureParams, RydbergParams


@pytest.fixture(scope="session")
def rydberg():
    model, bell = build_rydberg(RydbergParams())
    return model, bell


@pytest.fixture(scope="session")
def erasure():
    return build_erasure(ErasureParams())


@pytest.fixture(scope="session")
def fig1_result(tmp_path_factory):
    cfg = build_config(scenario_defaults("fig1"), "fig1",
                       tmp_path_factory.mktemp("fig1"), plots=False)
    return run_pipeline(cfg)


@pytest.fixture(scope="session")
def fig1_inset_result(tmp_path_factory):
    raw = scenario_defaults("fig1")
    raw["initial_state"] = {"kind": "sorted_ascending_diagonal", "beta": 30.0}
    cfg = build_config(raw, "fig1-inset", tmp_path_factory.mktemp("fig1i"), plots=False)
    return run_pipeline(cfg)


@pytest.fixture(scope="session")
def fig2_result(tmp_path_factory):
    cfg = build_config(scenario_defaults("fig2"), "fig2",
                       tmp_path_factory.mktemp("fig2"), plots=False)
    return run_pipeline(cfg)


@pytest.fixture(scope="session")
def figS1_results(tmp_path_factory):
    cfg = build_config(scenario_defaults("figS1"), "figS1",
                       tmp_path_factory.mktemp("figS1"), plots=False)
    return {name: run_pipeline(entry) for name, entry in cfg.runs}

"""Every public name resolves, and so does every entry point that the
benchmark's tracer (bench/tracing.py) wraps by module attribute, so a removed
or renamed function fails here, in process, with its name."""

import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import landauer_bounds
from landauer_bounds import LindbladModel, models

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up there
    spec.loader.exec_module(tracing)
    return tracing


def test_public_names_resolve():
    assert [name for name in landauer_bounds.__all__ if not hasattr(landauer_bounds, name)] == []


def test_traced_entry_points_exist(monkeypatch):
    tracing = load_tracing(monkeypatch)
    assert tracing.TRACED
    missing = [f"{module}.{attr}" for _, module, attr in tracing.TRACED
               if not hasattr(importlib.import_module(f"landauer_bounds.{module}"), attr)]
    assert missing == []


def test_counted_protocols_keep_the_model_kind(monkeypatch):
    # The tracer replaces the three protocol fields of each built model; a
    # model is driven when it has dH/dt, so the replaced model keeps its kind.
    assert "driven" not in [f.name for f in dataclasses.fields(LindbladModel)]
    tracing = load_tracing(monkeypatch)
    rydberg, _ = models.build_rydberg(models.RydbergParams())
    erasure = models.build_erasure(models.ErasureParams())
    for model, driven in ((rydberg, False), (erasure, True)):
        counted = tracing._count_protocols(tracing.Tracer("kind"), model)
        assert counted.hamiltonian_protocol is not model.hamiltonian_protocol
        assert model.driven is driven and counted.driven is driven

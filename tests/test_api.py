"""Every public name resolves, and so does every entry point that the
benchmark's tracer (bench/tracing.py) wraps by module attribute, so a removed
or renamed function fails here, in process, with its name."""

import importlib
import importlib.util
import sys
from pathlib import Path

import landauer_bounds

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_public_names_resolve():
    assert [name for name in landauer_bounds.__all__ if not hasattr(landauer_bounds, name)] == []


def test_traced_entry_points_exist(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up there
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    missing = [f"{module}.{attr}" for _, module, attr in tracing.TRACED
               if not hasattr(importlib.import_module(f"landauer_bounds.{module}"), attr)]
    assert missing == []

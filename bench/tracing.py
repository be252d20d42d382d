"""Span tracing of landauer_bounds, installed from outside the program.

``install`` replaces each traced entry point with a wrapper at the module
attribute its caller looks up (``cli.propagate``, ``qstate.state_functionals``,
``linalg.eigh``, ...), so nothing under ``src/`` changes. A wrapper records one
span per call: name, start, end and the span open when it was called. The
spans of one process form one run; they stay in memory and are written out
once, when the run ends. The protocols of the models that ``models.build_*``
return are wrapped with plain call counters, since they run hundreds of
thousands of times per run.

Self time is a span's duration minus the part of it that its child spans
cover; summed over a run, the self times add up to the root spans' duration.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

# (span name, module, attribute its callers look up). Both model builders
# record as one span name.
TRACED: tuple[tuple[str, str, str], ...] = (
    ("cli.run_pipeline", "cli", "run_pipeline"),
    ("cli.write_outputs", "cli", "write_outputs"),
    ("lindblad.propagate", "cli", "propagate"),
    ("models.build", "models", "build_rydberg"),
    ("models.build", "models", "build_erasure"),
    ("linalg.eigh", "linalg", "eigh"),
    ("qstate.von_neumann_entropy", "qstate", "von_neumann_entropy"),
    ("qstate.state_functionals", "qstate", "state_functionals"),
    ("qstate.relative_entropy", "qstate", "relative_entropy"),
    ("qstate.gibbs_state", "qstate", "gibbs_state"),
    ("refsolve.solve_beta_series", "refsolve", "solve_beta_series"),
    ("refsolve.solve_beta", "refsolve", "solve_beta"),
    ("thermo.undriven_bounds", "thermo", "undriven_bounds"),
    ("thermo.driven_bounds", "thermo", "driven_bounds"),
    ("thermo.nlp_comparison", "thermo", "nlp_comparison"),
    ("plotting.emit_plots", "plotting", "emit_plots"),
    ("plotting.read_bounds_csv", "plotting", "read_bounds_csv"),
    ("plotting.render", "plotting", "render"),
)

ROOT = "cli.main"


class Tracer:
    """Spans and counters of one run, kept in memory until ``dump``."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list[Any]] = []  # [name, start_ns, end_ns, parent index or -1]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)

    def span(self, name: str, fn: Callable[..., Any],
             after: Callable[[Any], Any] | None = None) -> Callable[..., Any]:
        """Wrap ``fn`` so each call records a span; ``after`` may replace the result."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            record = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            return result if after is None else after(result)

        return traced

    def counted(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap ``fn`` so each call increments the counter ``name``."""
        counts = self.counts

        @functools.wraps(fn)
        def counter(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return fn(*args, **kwargs)

        return counter

    def inside(self, name: str) -> bool:
        """True when a span called ``name`` is open."""
        return any(self.spans[i][0] == name for i in self.stack)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"run_id": self.run_id, "spans": self.spans,
                                    "counts": dict(self.counts)}))


def _count_protocols(tracer: Tracer, model: Any) -> Any:
    """The same model with every protocol call counted."""
    name = "lindblad.protocol_calls"
    rate = model.hamiltonian_rate_protocol
    return dataclasses.replace(
        model,
        hamiltonian_protocol=tracer.counted(name, model.hamiltonian_protocol),
        hamiltonian_rate_protocol=None if rate is None else tracer.counted(name, rate),
        channels=tuple(
            dataclasses.replace(ch, operator_protocol=tracer.counted(name, ch.operator_protocol))
            for ch in model.channels
        ),
    )


def _after_hooks(tracer: Tracer) -> dict[str, Callable[[Any], Any]]:
    counts = tracer.counts

    def built(result: Any) -> Any:
        if isinstance(result, tuple):  # build_rydberg returns (model, bell state)
            return (_count_protocols(tracer, result[0]),) + result[1:]
        return _count_protocols(tracer, result)

    def propagated(traj: Any) -> Any:
        counts["lindblad.steps"] += traj.n_steps
        return traj

    def series_solved(results: list[Any]) -> list[Any]:
        counts["refsolve.solves"] += len(results)
        counts["refsolve.saturated"] += sum(1 for r in results if r.saturated)
        counts["refsolve.failed"] += sum(1 for r in results if r.error is not None)
        return results

    def solved(result: Any) -> Any:
        # A series falls back to solve_beta for some samples; count those once.
        if not tracer.inside("refsolve.solve_beta_series"):
            series_solved([result])
        return result

    def bounded(rows: list[Any]) -> list[Any]:
        counts["thermo.rows"] += len(rows)
        return rows

    return {
        "models.build": built,
        "lindblad.propagate": propagated,
        "refsolve.solve_beta_series": series_solved,
        "refsolve.solve_beta": solved,
        "thermo.undriven_bounds": bounded,
        "thermo.driven_bounds": bounded,
    }


def install(tracer: Tracer) -> Callable[..., int]:
    """Wrap the traced entry points of landauer_bounds; return a traced ``cli.main``."""
    hooks = _after_hooks(tracer)
    for name, module, attr in TRACED:
        mod = importlib.import_module(f"landauer_bounds.{module}")
        setattr(mod, attr, tracer.span(name, getattr(mod, attr), hooks.get(name)))
    cli = importlib.import_module("landauer_bounds.cli")
    return tracer.span(ROOT, cli.main)


def covered_ns(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times_ns(spans: list[list[Any]]) -> list[int]:
    """Self time of each span: its duration minus what its children cover."""
    children: list[list[tuple[int, int]]] = [[] for _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - covered_ns(start, end, kids)
            for (_, start, end, _), kids in zip(spans, children)]


@dataclasses.dataclass
class RunProfile:
    """Per-name totals of one traced run."""

    calls: dict[str, int]
    self_s: dict[str, float]
    total_s: dict[str, float]
    counts: dict[str, int]
    span_count: int
    root_s: float


def profile(spans: list[list[Any]], counts: dict[str, int]) -> RunProfile:
    """Calls, self seconds and inclusive seconds per span name."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    root_s = 0.0
    for (name, start, end, parent), own in zip(spans, self_times_ns(spans)):
        calls[name] += 1
        self_s[name] += own * 1e-9
        total_s[name] += (end - start) * 1e-9
        if parent < 0:
            root_s += (end - start) * 1e-9
    return RunProfile(dict(calls), dict(self_s), dict(total_s), dict(counts),
                      len(spans), root_s)


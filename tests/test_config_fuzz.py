"""A configuration fuzzer: one path of a built-in scenario's defaults, or of a
custom model file, is replaced by a JSON value or deleted, and the run must end
the documented way. Derandomized, with no example database, so every run of the
suite tries the same examples.

The integrators are shrunk to at most 2,000 steps and 50 samples, and a value
drawn for an integrator key keeps them there, since a run's cost grows with its
step count and nothing else here.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import warnings

import hypothesis.strategies as hst
from hypothesis import HealthCheck, given, settings

from landauer_bounds import cli

CUSTOM_MODEL = {"dim": 2,
                "hamiltonian": {"re": [[0.0, 0.3], [0.3, 1.0]], "im": [[0, -0.2], [0.2, 0]]},
                "channels": [{"rate": 0.1, "operator": {"re": [[0, 1], [0, 0]]}}]}
SMALL = {"dt": 0.01, "t_end": 1.0, "n_samples": 5}


def _bases() -> dict[str, dict]:
    """Each base document: fig1, fig2 and figS1 with small integrators, and a
    custom-model configuration and its model file (named ``model.json``)."""
    fig1, fig2, figs1 = (cli.scenario_defaults(name) for name in ("fig1", "fig2", "figS1"))
    for raw in (fig1, fig2, figs1):
        raw["integrator"] = dict(SMALL)
    for entry in figs1["sweep"]:
        tau = entry["overrides"]["model_params"]["tau"]
        entry["overrides"]["integrator"] = {"dt": tau / 100, "t_end": tau}
    custom = {"model": "custom", "custom_model_file": "model.json",
              "initial_state": {"kind": "gibbs", "beta": 2.0}, "integrator": dict(SMALL)}
    return {"fig1": fig1, "fig2": fig2, "figS1": figs1, "custom": custom, "model": CUSTOM_MODEL}


BASES = _bases()


def _paths(doc, prefix=()):
    """The path of every value below the root of a JSON document."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


WORDS = (hst.sampled_from(["gibbs", "pure", "maximally_mixed", "sorted_ascending_diagonal",
                           "custom", "rydberg", "erasure", "negative", "non-negative", "re",
                           "im", "model.json", "meta.json", "sweep.svg", "meta.json.partial",
                           "sweep.svg.partial"])
         | hst.text(alphabet="abx._- ", max_size=4))
EXTREME = hst.sampled_from([1e300, -1e300, 1e160, -1e160, 1e-300, -1e-300, 5e-324, 0.0, -0.0])
NUMBERS = EXTREME | hst.floats() | hst.integers(-10**6, 10**6)
VALUES = hst.recursive(hst.none() | hst.booleans() | NUMBERS | WORDS,
                       lambda inner: hst.lists(inner, max_size=3)
                       | hst.dictionaries(WORDS, inner, max_size=3), max_leaves=6)
# Integrator values that keep a run within 2,000 steps and 50 samples: every
# base t_end is at most 20 and every base dt at least t_end / 100.
NOT_NUMBERS = hst.none() | hst.booleans() | WORDS | hst.lists(NUMBERS, max_size=2)
INTEGRATOR = {
    "dt": hst.floats(min_value=0.01, max_value=1e300) | hst.floats(max_value=0.0) | NOT_NUMBERS,
    "t_end": hst.floats(min_value=-1e300, max_value=20.0) | NOT_NUMBERS,
    "n_samples": hst.integers(-5, 50) | hst.floats(-5.0, 50.0) | NOT_NUMBERS,
}


@hst.composite
def mutations(draw):
    """(base name, mutated document): one path of a base, half the time a
    number's, deleted or replaced, a number most often by a number."""
    base = draw(hst.sampled_from(sorted(BASES)))
    doc = copy.deepcopy(BASES[base])
    paths = list(_paths(doc))
    numbers = [p for p in paths if type(_at(doc, p)) in (int, float)]
    path = draw(hst.sampled_from(numbers) | hst.sampled_from(paths))
    parent, key = _at(doc, path[:-1]), path[-1]
    if draw(hst.integers(0, 3)) == 0:
        del parent[key]
    elif "integrator" in path[:-1] and key in INTEGRATOR:
        parent[key] = draw(INTEGRATOR[key])
    else:
        parent[key] = draw(NUMBERS | VALUES if path in numbers else VALUES)
    return base, doc


@settings(derandomize=True, database=None, max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutations())
def test_any_one_bad_value_ends_the_documented_way(tmp_path_factory, case):
    base, doc = case
    work = tmp_path_factory.getbasetemp() / "fuzz"
    work.mkdir(exist_ok=True)
    config, model = work / "config.json", work / "model.json"
    model.write_text(json.dumps(doc if base == "model" else CUSTOM_MODEL))
    raw = BASES["custom"] if base == "model" else doc
    config.write_text(json.dumps({**raw, "custom_model_file": str(model)}
                                 if raw.get("custom_model_file") == "model.json" else raw))
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(["run", "--config", str(config), "--out", str(work / "out")])
    lines = err.getvalue().splitlines()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert code in (0, 1, 2, 3)
    if code == 3:
        assert len(lines) == 1 and lines[0].startswith("configuration error: ")
    elif code == 1:
        assert len(lines) == 1 and lines[0].startswith("runtime error: ")
        # the built-in pump annihilates its Bell state by construction
        assert "DarkStateViolation" not in lines[0]
    else:
        assert lines == []

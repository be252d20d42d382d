"""Write the reference output trees of one source tree of ``landauer_bounds``.

    python tools/reference_outputs.py SRC_DIR OUT_DIR

Runs ``python -m landauer_bounds.cli run ... --plots`` with PYTHONPATH=SRC_DIR,
one process per run, into OUT_DIR/<run>: the built-in scenarios fig1, fig2 and
figS1, the benchmark workloads pump, erase and erase-sweep at seed 0, whose
configs ``bench/scenarios.config_bytes`` writes, two-baths, a custom model file
read through ``--config`` (README's qubit between two baths, run without
``bath_T``), cold-qubit (a custom decaying qubit in its Gibbs state at beta =
720, whose reference lies beyond |beta_R| * spread = 700 and so flags every
sample ``saturated``), complex-qutrit (a custom qutrit whose Hamiltonian and
jump operators have imaginary parts, coupled to a bath at ``bath_T``), and fig1
from the three other initial-state kinds: fig1-inset (the population-inverted
start of the paper's Fig. 1 inset), pump-pure (the pure state |01>) and
pump-mixed (the maximally mixed state). Two trees made this way from two source
trees are then compared with

    python tools/compare_outputs.py PARENT_OUT CHANGE_OUT

Prints one line per run; exits 1 when a run exits with a code other than 0, 2
on bad arguments and 0 otherwise. All twelve runs take a few seconds.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
SCENARIOS = ("fig1", "fig2", "figS1")
# fig1's initial state replaced by one of each other kind
FIG1_STARTS = {
    "fig1-inset": {"kind": "sorted_ascending_diagonal", "beta": 30.0},
    "pump-pure": {"kind": "pure", "vector": [[0.0, 0.0], [1.0, 0.0]] + [[0.0, 0.0]] * 7},
    "pump-mixed": {"kind": "maximally_mixed"},
}


def two_baths_model() -> dict:
    """A qubit with gap 1 coupled with rate 0.1 to baths at T = 0.5 and T = 5.
    Its matrices mix integer and float entries and give the Hamiltonian an "im"."""
    channels = []
    for temperature in (0.5, 5.0):
        n_bath = 1.0 / math.expm1(1.0 / temperature)
        channels += [{"rate": 0.1 * (n_bath + 1.0), "operator": {"re": [[0, 1], [0, 0]]}},
                     {"rate": 0.1 * n_bath, "operator": {"re": [[0, 0], [1, 0]]}}]
    return {"dim": 2, "hamiltonian": {"re": [[-0.5, 0], [0, 0.5]], "im": [[0, 0], [0, 0]]},
            "channels": channels}


def complex_qutrit_model(temperature: float) -> dict:
    """Levels 0, v+ = (|1> + i|2>) / sqrt(2) at energy 1 and v- = (|1> - i|2>) / sqrt(2)
    at energy 2, and one thermal pair of jumps between 0 and v+ at ``temperature``
    with rate 0.2: each operator is sqrt(2) times |0><v+| or |v+><0|, so the
    Hamiltonian and both operators have imaginary parts."""
    n_bath = 1.0 / math.expm1(1.0 / temperature)
    down = {"re": [[0, 1, 0], [0, 0, 0], [0, 0, 0]], "im": [[0, 0, -1], [0, 0, 0], [0, 0, 0]]}
    up = {"re": [[0, 0, 0], [1, 0, 0], [0, 0, 0]], "im": [[0, 0, 0], [0, 0, 0], [1, 0, 0]]}
    return {"dim": 3, "hamiltonian": {"re": [[0, 0, 0], [0, 1.5, 0], [0, 0, 1.5]],
                                      "im": [[0, 0, 0], [0, 0, 0.5], [0, -0.5, 0]]},
            "channels": [{"rate": 0.1 * (n_bath + 1.0), "operator": down},
                         {"rate": 0.1 * n_bath, "operator": up}]}


def runs(config_dir: Path) -> list[tuple[str, list[str]]]:
    """(run name, CLI arguments before --out) of every reference run; the
    benchmark configs are written into ``config_dir``."""
    sys.path.insert(0, str(BENCH))
    try:
        import scenarios
    finally:
        sys.path.remove(str(BENCH))
    out = [(name, ["--scenario", name]) for name in SCENARIOS]
    for workload in scenarios.WORKLOADS:
        path = config_dir / f"{workload}.json"
        path.write_bytes(scenarios.config_bytes(workload, 0))
        out.append((workload, ["--config", str(path)]))
    model, config = config_dir / "two-baths-model.json", config_dir / "two-baths.json"
    model.write_text(json.dumps(two_baths_model()))
    config.write_text(json.dumps({
        "model": "custom", "custom_model_file": str(model),
        "initial_state": {"kind": "gibbs", "beta": 2.0},
        "integrator": {"dt": 0.01, "t_end": 40.0, "n_samples": 41}}))
    out.append(("two-baths", ["--config", str(config)]))
    model, config = config_dir / "cold-qubit-model.json", config_dir / "cold-qubit.json"
    model.write_text(json.dumps({"dim": 2, "hamiltonian": {"re": [[0, 0], [0, 1]]}, "channels": [
        {"rate": 0.1, "operator": {"re": [[0, 1], [0, 0]]}}]}))
    config.write_text(json.dumps({
        "model": "custom", "custom_model_file": str(model),
        "initial_state": {"kind": "gibbs", "beta": 720.0},
        "integrator": {"dt": 0.01, "t_end": 1.0, "n_samples": 5}}))
    out.append(("cold-qubit", ["--config", str(config)]))
    model, config = config_dir / "complex-qutrit-model.json", config_dir / "complex-qutrit.json"
    bath_T = 0.5  # the temperature of the model's jumps
    model.write_text(json.dumps(complex_qutrit_model(bath_T)))
    config.write_text(json.dumps({
        "model": "custom", "custom_model_file": str(model),
        "initial_state": {"kind": "gibbs", "beta": 0.5}, "bath_T": bath_T,
        "integrator": {"dt": 0.01, "t_end": 20.0, "n_samples": 41}}))
    out.append(("complex-qutrit", ["--config", str(config)]))
    for name, start in FIG1_STARTS.items():
        config = config_dir / f"{name}.json"
        config.write_text(json.dumps({
            "model": "rydberg", "model_params": {"omega2": 0.02, "omega": 0.01, "gamma": 0.03},
            "initial_state": start,
            "integrator": {"dt": 0.01, "t_end": 2000.0, "n_samples": 401}}))
        out.append((name, ["--config", str(config)]))
    return out


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not (Path(args[0]) / "landauer_bounds" / "cli.py").is_file():
        print("usage: python tools/reference_outputs.py SRC_DIR OUT_DIR"
              " (SRC_DIR holds landauer_bounds/)", file=sys.stderr)
        return 2
    src, out = Path(args[0]).resolve(), Path(args[1])
    env = dict(os.environ, PYTHONPATH=str(src))
    failed = 0
    with tempfile.TemporaryDirectory() as config_dir:
        for name, cli_args in runs(Path(config_dir)):
            code = subprocess.run([sys.executable, "-m", "landauer_bounds.cli", "run", *cli_args,
                                   "--out", str(out / name), "--plots"], env=env).returncode
            print(f"{name}: exit {code}")
            failed += code != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Scenario benchmark of landauer_bounds.

    python3 bench/run.py --workload pump --seed 0 --seconds 40 --trace 0

Run from the root of a checkout. It writes the workload's scenario config
for the seed, then runs it closed loop, one run at a time, each in a fresh
``python -m landauer_bounds.cli run --config ... --plots`` process, until the
next run would end after ``--seconds``. Every run's outputs are checked
(see checks.py); a run that exits non-zero or fails the check counts as
failed.

--trace 0 reports the end-to-end metrics: the median wall time of a run,
from process start to exit; the median set-up time, from process start until
the config is built, over several set-up-only processes; and the median peak
resident memory of a run.

--trace 1 alternates untraced runs with runs traced from outside the program
(see tracing.py) and reports per-layer metrics: medians over the traced runs,
plus the tracing overhead, traced minus untraced median run time.

Metric names and units come from BENCHMARK.json. The last line of standard
output is one JSON object with keys correct, attempted, failed and metrics;
the exit code is 0 only when every run passed its check. Scratch files go to
.bench_runs/ in the checkout.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

import checks
import scenarios
import tracing

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"

SETUP_PROBES = 7
MIN_RUNS = 3  # untraced mode; traced mode needs one run of each kind
CHILD_TIMEOUT_S = 150.0

# Each run is one process with one BLAS/OpenMP thread. The matrices are at
# most 81 x 81: on a 2-core machine a second BLAS thread made `pump` slower
# (8.4-9.8 s against 6.4-8.0 s) and its run time twice as spread, since it
# then also waits for a second core to be free.
SINGLE_THREADED = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                         "MKL_NUM_THREADS")}

QSTATE_TRACED = ("von_neumann_entropy", "state_functionals", "relative_entropy", "gibbs_state")


@dataclasses.dataclass
class Run:
    """One timed scenario run and what its check found."""

    traced: bool
    wall_s: float
    peak_rss_mib: float
    output_bytes: int
    problems: list[str]
    spans_path: Path | None = None
    profile: tracing.RunProfile | None = None


def _own_peak_rss_kib() -> int:
    """Peak RSS of this process's memory image (VmHWM), not counting what it exec'd from."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def run_child(cmd: list[str], log_stem: Path) -> tuple[int, float, float, str]:
    """Run a child to completion: exit code, wall seconds, peak RSS in MiB, stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **SINGLE_THREADED)
    own_peak_kib = _own_peak_rss_kib()
    out_path, err_path = log_stem.with_suffix(".out"), log_stem.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=err, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if usage.ru_maxrss <= own_peak_kib:
        raise RuntimeError(f"{cmd[1:3]}: peak RSS {usage.ru_maxrss} KiB is not above this "
                           f"process's own {own_peak_kib} KiB, which the kernel reports as a floor")
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, out_path.read_text()


def setup_seconds(cli_args: list[str], log_stem: Path) -> float:
    """Seconds from process start until the CLI has built the config."""
    start_ns = time.monotonic_ns()
    code, _, _, stdout = run_child([sys.executable, str(CHILD), "setup", *cli_args], log_stem)
    if code != 0:
        raise RuntimeError(f"set-up probe exited {code}; see {log_stem}.err")
    return (int(stdout.split()[-1]) - start_ns) * 1e-9


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def timed_run(index: int, traced: bool, workload: str, config: dict[str, Any],
              config_path: Path, work: Path, compare_reference: bool) -> Run:
    out = work / f"run{index}"
    cli_args = ["run", "--config", str(config_path), "--out", str(out), "--plots"]
    if traced:
        spans_path = work / f"spans{index}.json"
        cmd = [sys.executable, str(CHILD), "trace", str(spans_path), f"run{index}", *cli_args]
    else:
        cmd = [sys.executable, "-m", "landauer_bounds.cli", *cli_args]
    code, wall, rss, _ = run_child(cmd, work / f"run{index}")
    problems = checks.check_outputs(workload, config, out, code, compare_reference)
    run = Run(traced, wall, rss, _tree_bytes(out) if out.exists() else 0, problems)
    if traced and code == 0:
        run.spans_path = spans_path
    if not problems:
        shutil.rmtree(out)
    return run


def load_profile(run: Run) -> None:
    """Self times and counts of a traced run, from its spans file."""
    if run.spans_path is not None:
        dumped = json.loads(run.spans_path.read_text())
        run.profile = tracing.profile(dumped["spans"], dumped["counts"])
        run.spans_path.unlink()


def layer_metrics(run: Run) -> dict[str, float]:
    """Per-layer values of one traced run, keyed as in BENCHMARK.json."""
    p = run.profile  # set on every traced run that exited 0

    def self_s(*names: str) -> float:
        return sum(p.self_s.get(n, 0.0) for n in names)

    steps = p.counts.get("lindblad.steps", 0)
    m: dict[str, float] = {
        "models.build.s": self_s("models.build"),
        "lindblad.propagate.s": self_s("lindblad.propagate"),
        "lindblad.steps": steps,
        "lindblad.step_us": p.total_s.get("lindblad.propagate", 0.0) / max(steps, 1) * 1e6,
        "lindblad.protocol_calls": p.counts.get("lindblad.protocol_calls", 0),
        "linalg.eigh.calls": p.calls.get("linalg.eigh", 0),
        "linalg.eigh.s": self_s("linalg.eigh"),
    }
    for fn in QSTATE_TRACED:
        m[f"qstate.{fn}.calls"] = p.calls.get(f"qstate.{fn}", 0)
        m[f"qstate.{fn}.s"] = self_s(f"qstate.{fn}")
    m.update({
        "refsolve.s": self_s("refsolve.solve_beta_series", "refsolve.solve_beta"),
        "refsolve.solves": p.counts.get("refsolve.solves", 0),
        "refsolve.saturated": p.counts.get("refsolve.saturated", 0),
        "refsolve.failed": p.counts.get("refsolve.failed", 0),
        "thermo.s": self_s("thermo.undriven_bounds", "thermo.driven_bounds",
                           "thermo.nlp_comparison"),
        "thermo.rows": p.counts.get("thermo.rows", 0),
        "cli.main.s": self_s(tracing.ROOT),
        "cli.run_pipeline.s": self_s("cli.run_pipeline"),
        "cli.write_outputs.s": self_s("cli.write_outputs"),
        "cli.output_bytes": run.output_bytes,
        "plotting.emit_plots.s": self_s("plotting.emit_plots"),
        "plotting.read_bounds_csv.s": self_s("plotting.read_bounds_csv"),
        "plotting.render.s": self_s("plotting.render"),
        "trace.run_s": run.wall_s,
        "trace.outside_s": run.wall_s - p.root_s,
        "trace.spans": p.span_count,
    })
    return m


def _median(values: list[float]) -> float:
    """Median; a count stays a whole number."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def end_to_end_values(runs: list[Run], setups: list[float]) -> dict[str, float]:
    return {
        "run_s": statistics.median(r.wall_s for r in runs),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": statistics.median(r.peak_rss_mib for r in runs),
    }


def per_layer_values(runs: list[Run]) -> dict[str, float]:
    """Medians over the traced runs; empty when no traced run succeeded."""
    profiled = [layer_metrics(r) for r in runs if r.profile is not None]
    if not profiled:
        return {}
    values = {k: _median([m[k] for m in profiled]) for k in profiled[0]}
    untraced = statistics.median(r.wall_s for r in runs if not r.traced)
    values["trace.overhead_s"] = values["trace.run_s"] - untraced
    return values


def outcome(runs: list[Run]) -> tuple[int, int]:
    """(attempted, failed) over all timed runs."""
    return len(runs), sum(1 for r in runs if r.problems)


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment(workload: str, seed: int, trace: int, smoke: bool, work: Path) -> dict[str, Any]:
    code, _, _, stdout = run_child([sys.executable, str(CHILD), "environment"], work / "environment")
    return {
        "workload": workload, "seed": seed, "trace": trace, "smoke": smoke,
        "python": platform.python_version(),
        **(json.loads(stdout) if code == 0 else {"numpy": None, "blas": None}),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "git_commit": _git_commit(),
        "platform": platform.platform(),
        "threads": SINGLE_THREADED,
    }


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=scenarios.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced step counts; skips the seed-0 reference comparison")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "landauer_bounds" / "cli.py").is_file():
        print(f"error: no program source at {SRC}/landauer_bounds", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    work = ROOT / ".bench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    config = scenarios.scenario(args.workload, args.seed, args.smoke)
    config_path = work / "config.json"
    config_path.write_bytes(scenarios.config_bytes(args.workload, args.seed, args.smoke))
    env = environment(args.workload, args.seed, args.trace, args.smoke, work)
    compare_reference = args.seed == 0 and not args.smoke

    start = time.monotonic()
    deadline = start + args.seconds
    setups = []
    if not args.trace:
        probe_args = ["run", "--config", str(config_path), "--out", str(work / "probe")]
        setups = [setup_seconds(probe_args, work / f"setup{i}") for i in range(SETUP_PROBES)]
    runs: list[Run] = []
    while True:
        traced = bool(args.trace) and len(runs) % 2 == 1
        runs.append(timed_run(len(runs), traced, args.workload, config, config_path,
                              work, compare_reference))
        kinds = {r.traced for r in runs}
        enough = len(kinds) == 2 if args.trace else len(runs) >= MIN_RUNS
        typical = statistics.median(r.wall_s for r in runs)
        if enough and time.monotonic() + typical > deadline:
            break

    # Spans are read only now: a child's peak RSS as wait4 reports it is at
    # least this process's own peak when the child was started.
    for run in runs:
        load_profile(run)
    attempted, failed = outcome(runs)
    if args.trace:
        declared, values = spec["per_layer"], per_layer_values(runs)
    else:
        declared, values = spec["end_to_end"], end_to_end_values(runs, setups)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in values}
    if values and set(values) != set(metrics):
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {set(values) - set(metrics)}")
    correct = failed == 0 and len(metrics) == len(declared)

    for key, val in env.items():
        print(f"env.{key} = {val}")
    for run in runs:
        kind = "traced" if run.traced else "untraced"
        spans = "" if run.profile is None else (f" = spans {run.profile.root_s:.4f} s"
                                                f" + outside {run.wall_s - run.profile.root_s:.4f} s")
        print(f"run {kind} {run.wall_s:.4f} s{spans} {run.peak_rss_mib:.1f} MiB"
              + (f" FAILED: {'; '.join(run.problems)}" if run.problems else " ok"))
    print(f"failed_frac = {failed / attempted} ({failed} of {attempted} runs)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    (work / "result.json").write_text(json.dumps(
        {"environment": env, "result": result, "setup_s": setups,
         "runs": [{"traced": r.traced, "wall_s": r.wall_s, "peak_rss_mib": r.peak_rss_mib,
                   "problems": r.problems} for r in runs]}, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

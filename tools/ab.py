"""A/B benchmark of this checkout against a parent revision.

    python tools/ab.py --parent REV --workload pump --seed N --pairs 10 \\
        --seconds S --tag T [--trace-seconds 15] [--single-pairs P]

Extracts the committed files of REV and the tracked working tree of this
checkout (``git stash create``, or HEAD when the tree is clean) with ``git
archive`` to .bench_build/parent-<rev> and .bench_build/change-<rev>, two paths
of the same length, since the length of the checkout's path alone moves peak
RSS. ``--workload`` takes one or more workloads. Writes BENCH_<T>.json at the
root of this checkout. Both extracted trees are removed at the end.

Windows (``--seconds`` S above 0). Runs ``bench/run.py --trace 0`` from the
root of each side, one window of S seconds per side and pair, alternating
which side runs first. The record holds, per workload and end-to-end metric,
each side's window values, their medians, the parent's interquartile range
(q3 - q1), the number of pairs in which the change reads better and the
relative change of the medians. Next to them, under ``pooled_runs``, the same
metric over the single runs of all windows of a side (each window's
``result.json``: its run times and peak RSS, and its set-up probes): each
side's count, median and interquartile range, and the relative change of the
medians. With ``--trace-seconds`` above 0 it also runs one traced window
(``--trace 1``) per side at seed 7, under ``per_layer_seed7_traced``. A window
that fails its check stops the run (exit 1).

Single-run pairs (``--single-pairs`` P above 0). Runs P pairs of single fresh
processes per side on the bench's config bytes for the workload and seed: a
set-up probe (``bench/child.py setup``) and a ``landauer_bounds.cli run
--plots``, each timed from its start to its exit with its peak RSS from
``os.wait4``, as bench/run.py times them. The sides run in ABBA blocks (AB
then BA, or BA then AB) drawn by a generator of fixed seed, and each pair's
two runs get one environment padding of random length, so that layout bias
averages out. Every run is checked by ``bench/checks.py``; a run that fails
its check stops the tool (exit 1). The record holds, under ``single_runs``,
per workload and end-to-end metric, both sides' values and the paired
differences change - parent: their median, its bootstrap 95 % interval
(``bootstrap_interval``) and the sign count.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import time
from importlib.metadata import version
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
TRACE_SEED = 7
ORDER_SEED = 0  # draws the ABBA blocks and the environment paddings of single-run pairs
BOOTSTRAP_SEED = 0
BOOTSTRAP_RESAMPLES = 10_000

sys.path.insert(0, str(ROOT / "bench"))
import checks  # noqa: E402  (bench/: the run checks and config bytes of the benchmark)
import scenarios  # noqa: E402


def summarize(parent: list[float], change: list[float], better: str) -> dict[str, Any]:
    """One metric over paired windows: both sides' values, their medians, the parent's
    interquartile range, how many pairs the change wins (``better`` is "lower" or
    "higher"; a tie wins for neither) and the change median relative to the parent's."""
    q1, _, q3 = statistics.quantiles(parent, n=4)
    sign = 1 if better == "lower" else -1
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    return {
        "parent": parent,
        "change": change,
        "parent_median": parent_median,
        "change_median": change_median,
        "parent_iqr": q3 - q1,
        "change_wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
        "pairs": len(parent),
        "relative_change": change_median / parent_median - 1,
    }


def pooled(parent: list[float], change: list[float]) -> dict[str, Any]:
    """One metric over the single runs of all windows of each side: counts, medians,
    interquartile ranges and the change median relative to the parent's."""
    record: dict[str, Any] = {}
    for side, values in (("parent", parent), ("change", change)):
        q1, _, q3 = statistics.quantiles(values, n=4)
        record.update({f"{side}_runs": len(values), f"{side}_median": statistics.median(values),
                       f"{side}_iqr": q3 - q1})
    record["relative_change"] = record["change_median"] / record["parent_median"] - 1
    return record


def run_values(result: dict[str, Any]) -> dict[str, list[float]]:
    """The single-run values of a window's result.json, by end-to-end metric: the
    untraced runs' wall time and peak RSS, and the set-up probes."""
    runs = [run for run in result["runs"] if not run["traced"]]
    return {"run_s": [run["wall_s"] for run in runs], "setup_s": result["setup_s"],
            "peak_rss_mib": [run["peak_rss_mib"] for run in runs]}


def window(root: Path, workload: str, seed: int, seconds: float,
           trace: int) -> tuple[dict[str, float], dict[str, list[float]]]:
    """Metric values of one bench/run.py window run from the checkout at ``root``, and
    the single-run values of its result.json."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False}
    if proc.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"{workload} window in {root} failed (exit {proc.returncode}):"
                           f" {proc.stderr.strip()[-500:] or lines[-1:]}")
    saved = root / ".bench_runs" / f"{workload}-seed{seed}-trace{trace}" / "result.json"
    return ({name: metric["value"] for name, metric in result["metrics"].items()},
            run_values(json.loads(saved.read_text())))


def bootstrap_interval(differences: list[float], level: float = 0.95) -> tuple[float, float]:
    """The percentile bootstrap interval of the median of paired ``differences``:
    the (1 - level) / 2 and (1 + level) / 2 quantiles of the medians of
    BOOTSTRAP_RESAMPLES resamples with replacement, drawn with a fixed seed."""
    import numpy as np  # here, so that the tool's own RSS stays below its children's

    rng = np.random.default_rng(BOOTSTRAP_SEED)
    values = np.asarray(differences, dtype=float)
    medians = np.median(rng.choice(values, size=(BOOTSTRAP_RESAMPLES, len(values))), axis=1)
    low, high = np.quantile(medians, [(1 - level) / 2, (1 + level) / 2])
    return float(low), float(high)


def paired(parent: list[float], change: list[float], better: str) -> dict[str, Any]:
    """One metric over single-run pairs: both sides' values, the median of the
    differences change - parent, its bootstrap 95 % interval, whether that
    excludes 0, and the pairs the change wins and loses (``better`` is "lower" or
    "higher"; a tie is neither)."""
    differences = [c - p for p, c in zip(parent, change)]
    low, high = bootstrap_interval(differences)
    sign = 1 if better == "lower" else -1
    return {
        "parent": parent,
        "change": change,
        "median_difference": statistics.median(differences),
        "interval95": [low, high],
        "excludes_zero": not low <= 0.0 <= high,
        "change_wins": sum(sign * d < 0 for d in differences),
        "change_losses": sum(sign * d > 0 for d in differences),
        "pairs": len(differences),
    }


def abba_orders(pairs: int, rng: random.Random) -> list[tuple[str, str]]:
    """The order of the two sides in each of ``pairs`` pairs: blocks of two pairs,
    each AB then BA or BA then AB, drawn by ``rng``."""
    orders: list[tuple[str, str]] = []
    while len(orders) < pairs:
        first = rng.choice([("parent", "change"), ("change", "parent")])
        orders += [first, first[::-1]]
    return orders[:pairs]


def fresh_process(root: Path, cmd: list[str], padding: int,
                  log: Path) -> tuple[int, float, float, str]:
    """Run one process from the checkout at ``root`` with its ``src`` on PYTHONPATH,
    one BLAS thread, an environment padded by ``padding`` bytes and its standard
    error to ``log``: exit code, wall seconds from start to exit, peak RSS in MiB
    and standard output."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), AB_PADDING="x" * padding,
               **{var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                       "MKL_NUM_THREADS")})
    with open(log, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, cwd=root, stdout=subprocess.PIPE, stderr=err)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - start
    # a child's peak RSS as wait4 reports it is at least this process's own peak
    if usage.ru_maxrss <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss:
        raise RuntimeError(f"{cmd[1:3]}: peak RSS {usage.ru_maxrss} KiB is not above this"
                           " process's own, which the kernel reports as a floor")
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0, out.decode()


def single_pair(root: Path, workload: str, seed: int, work: Path,
                padding: int) -> dict[str, float]:
    """One side's set-up probe and checked run in fresh processes: setup_s, run_s and
    peak_rss_mib, as bench/run.py measures them."""
    config, out = work / "config.json", work / "out"
    config.write_bytes(scenarios.config_bytes(workload, seed))
    start_ns = time.monotonic_ns()
    code, _, _, stdout = fresh_process(root, [sys.executable, "bench/child.py", "setup", "run",
                                              "--config", str(config), "--out", str(out)],
                                       padding, work / "setup.err")
    if code != 0:
        raise RuntimeError(f"{workload} set-up probe in {root} exited {code}")
    setup_s = (int(stdout.split()[-1]) - start_ns) * 1e-9
    code, wall, rss, _ = fresh_process(root, [sys.executable, "-m", "landauer_bounds.cli", "run",
                                              "--config", str(config), "--out", str(out),
                                              "--plots"], padding, work / "run.err")
    problems = checks.check_outputs(workload, scenarios.scenario(workload, seed), out, code,
                                    seed == 0)
    if problems:
        raise RuntimeError(f"{workload} run in {root} failed its check: {'; '.join(problems)}")
    shutil.rmtree(out)
    return {"run_s": wall, "setup_s": setup_s, "peak_rss_mib": rss}


def single_runs(sides: dict[str, Path], workload: str, seed: int,
                pairs: int) -> dict[str, Any]:
    """``pairs`` single-run pairs of a workload in ABBA order: each side's values by
    metric, and the wall time they took."""
    values: dict[str, dict[str, list[float]]] = {"parent": {}, "change": {}}
    rng, start = random.Random(ORDER_SEED), time.monotonic()
    orders = abba_orders(pairs, rng)
    for i, (order, padding) in enumerate(zip(orders, [rng.randrange(4096) for _ in orders])):
        for side in order:
            work = sides[side] / ".bench_runs" / f"single-{workload}-seed{seed}"
            work.mkdir(parents=True, exist_ok=True)
            for name, value in single_pair(sides[side], workload, seed, work, padding).items():
                values[side].setdefault(name, []).append(value)
        print(f"{workload} single pair {i + 1}: " + ", ".join(
            f"{side} peak_rss_mib {values[side]['peak_rss_mib'][-1]:.2f}" for side in order),
            flush=True)
    return {**values, "wall_s": time.monotonic() - start}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True, nargs="+")
    parser.add_argument("--seed", type=int, required=True, nargs="+",
                        help="the first seed's records are 'end_to_end' and 'single_runs',"
                             " another seed N's carry the suffix '_seedN'")
    parser.add_argument("--pairs", type=int, default=10, help="window pairs")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="length of one window (0: no windows)")
    parser.add_argument("--single-pairs", type=int, default=0,
                        help="single-run pairs per workload and seed (0: none)")
    parser.add_argument("--tag", required=True, help="writes BENCH_<tag>.json")
    parser.add_argument("--trace-seconds", type=float, default=0.0,
                        help="length of the one traced window per side (0: none)")
    return parser


def _git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract_checkouts(root: Path, parent_rev: str) -> dict[str, Path]:
    """The parent's committed files and the tracked working tree of the repository at
    ``root``, each extracted under root/.bench_build/, by side."""
    revs = {"parent": parent_rev, "change": _git(root, "stash", "create") or
            _git(root, "rev-parse", "HEAD")}
    sides = {}
    for side, rev in revs.items():
        sides[side] = root / ".bench_build" / f"{side}-{rev[:12]}"
        archive = subprocess.run(["git", "archive", rev], cwd=root, check=True,
                                 capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(sides[side], filter="data")
    return sides


def windows(sides: dict[str, Path], workload: str, seed: int, pairs: int, seconds: float,
            spec: dict[str, Any]) -> dict[str, Any]:
    """``pairs`` window pairs of a workload, alternating which side runs first,
    summarized per metric, with the single runs of each side's windows pooled."""
    runs: dict[str, list[dict[str, float]]] = {"parent": [], "change": []}
    singles: dict[str, dict[str, list[float]]] = {"parent": {}, "change": {}}
    for i in range(pairs):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            values, per_run = window(sides[side], workload, seed, seconds, 0)
            runs[side].append(values)
            for name, run_list in per_run.items():
                singles[side].setdefault(name, []).extend(run_list)
        print(f"{workload} pair {i + 1}: " + ", ".join(
            f"{side} run_s {runs[side][-1]['run_s']:.4f}" for side in runs), flush=True)
    return {m["name"]: {**summarize([r[m["name"]] for r in runs["parent"]],
                                    [r[m["name"]] for r in runs["change"]], m["better"]),
                        "pooled_runs": pooled(singles["parent"][m["name"]],
                                              singles["change"][m["name"]])}
            for m in spec["end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.seconds <= 0 and args.single_pairs <= 0:
        print("error: give --seconds or --single-pairs above 0", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent_rev = _git(ROOT, "rev-parse", args.parent)
    sides = extract_checkouts(ROOT, parent_rev)
    records: dict[str, dict[str, Any]] = {}
    per_layer: dict[str, Any] = {}
    try:
        for i, seed in enumerate(args.seed):
            suffix = f"_seed{seed}" if i else ""
            for workload in args.workload:
                if args.seconds > 0:
                    records.setdefault(f"end_to_end{suffix}", {})[workload] = windows(
                        sides, workload, seed, args.pairs, args.seconds, spec)
                if args.single_pairs > 0:
                    records.setdefault(f"single_runs{suffix}", {})[workload] = single_runs(
                        sides, workload, seed, args.single_pairs)
        if args.trace_seconds > 0:
            for workload in args.workload:
                traced = {side: window(root, workload, TRACE_SEED, args.trace_seconds, 1)[0]
                          for side, root in sides.items()}
                per_layer[workload] = {
                    m["name"]: {"parent": traced["parent"][m["name"]],
                                "change": traced["change"][m["name"]], "unit": m["unit"]}
                    for m in spec["per_layer"]}
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for checkout in sides.values():
            shutil.rmtree(checkout)

    for name, record in records.items():  # numpy is imported only after the last run
        if name.startswith("single_runs"):
            for workload, runs in record.items():
                record[workload] = {
                    m["name"]: paired(runs["parent"][m["name"]], runs["change"][m["name"]],
                                      m["better"]) for m in spec["end_to_end"]}
                record[workload]["wall_s"] = runs["wall_s"]
    seeds = " ".join(map(str, args.seed))
    commands, methods = [], []
    if args.seconds > 0:
        commands.append(f"python3 bench/run.py --workload W --seed {{{seeds}}}"
                        f" --seconds {args.seconds:g} --trace 0 (end to end)")
        methods.append(f"{args.pairs} window pairs per workload and seed, alternating which"
                       " side runs first; each value is the median of one window;"
                       " 'change_wins' counts pairs where the change reads better;"
                       " 'parent_iqr' is the parent's interquartile range (q3 - q1);"
                       " 'pooled_runs' summarizes the single runs (set-up probes for setup_s)"
                       " of all windows of each side")
    if args.single_pairs > 0:
        commands.append("bench/child.py setup and landauer_bounds.cli run --plots in fresh"
                        f" processes on the bench's config bytes of seed {{{seeds}}}"
                        " (single runs)")
        methods.append(f"{args.single_pairs} single-run pairs per workload and seed in ABBA"
                       f" blocks drawn with seed {ORDER_SEED}; 'median_difference' is the"
                       " median of change - parent and 'interval95' its percentile bootstrap"
                       f" interval ({BOOTSTRAP_RESAMPLES} resamples, seed {BOOTSTRAP_SEED})")
    if per_layer:
        commands.append(f"python3 bench/run.py --seed {TRACE_SEED}"
                        f" --seconds {args.trace_seconds:g} --trace 1 (per layer)")
        methods.append("per-layer values come from one traced window per side")
    record: dict[str, Any] = {
        "change": (f"tracked working tree at {_git(ROOT, 'rev-parse', 'HEAD')} against"
                   f" {parent_rev}"),
        "command": "; ".join(commands) + ", run from the root of each checkout",
        "method": "; ".join(methods),
        "environment": {"python": platform.python_version(), "numpy": version("numpy"),
                        "cpus": len(os.sched_getaffinity(0)), "blas": "one thread"},
        **records,
    }
    if per_layer:
        record[f"per_layer_seed{TRACE_SEED}_traced"] = per_layer
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

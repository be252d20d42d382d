"""A/B benchmark of this checkout against a parent revision.

    python tools/ab.py --parent REV --workload pump --seed N --pairs 10 \\
        --seconds S --tag T [--trace-seconds 15]

Extracts the committed files of REV and the tracked working tree of this
checkout (``git stash create``, or HEAD when the tree is clean) with ``git
archive`` to .bench_build/parent-<rev> and .bench_build/change-<rev>, two paths
of the same length, since the length of the checkout's path alone moves peak
RSS. Runs ``bench/run.py --trace 0`` from the root of each, one window of S
seconds per side and pair, alternating which side runs first.
``--workload`` takes one or more workloads. Writes BENCH_<T>.json at the root
of this checkout in the schema of the other BENCH_*.json files: per workload
and end-to-end metric, each side's window values, their medians, the
parent's interquartile range (q3 - q1), the number of pairs in which the
change reads better and the relative change of the medians. Next to them,
under ``pooled_runs``, the same metric over the single runs of all windows
of a side (each window's ``result.json``: its run times and peak RSS, and
its set-up probes): each side's count, median and interquartile range, and
the relative change of the medians. With ``--trace-seconds`` above 0 it also
runs one traced window (``--trace 1``) per side at seed 7, under
``per_layer_seed7_traced``. A window that fails its check stops the run
(exit 1). Both extracted trees are removed at the end.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
from importlib.metadata import version
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
TRACE_SEED = 7


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


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True, nargs="+")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, required=True)
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


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent_rev = _git(ROOT, "rev-parse", args.parent)
    sides = extract_checkouts(ROOT, parent_rev)
    end_to_end: dict[str, Any] = {}
    per_layer: dict[str, Any] = {}
    try:
        for workload in args.workload:
            runs: dict[str, list[dict[str, float]]] = {"parent": [], "change": []}
            singles: dict[str, dict[str, list[float]]] = {"parent": {}, "change": {}}
            for i in range(args.pairs):
                for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                    values, per_run = window(sides[side], workload, args.seed, args.seconds, 0)
                    runs[side].append(values)
                    for name, run_list in per_run.items():
                        singles[side].setdefault(name, []).extend(run_list)
                print(f"{workload} pair {i + 1}: " + ", ".join(
                    f"{side} run_s {runs[side][-1]['run_s']:.4f}" for side in runs), flush=True)
            end_to_end[workload] = {
                m["name"]: {**summarize([r[m["name"]] for r in runs["parent"]],
                                        [r[m["name"]] for r in runs["change"]], m["better"]),
                            "pooled_runs": pooled(singles["parent"][m["name"]],
                                                  singles["change"][m["name"]])}
                for m in spec["end_to_end"]}
            if args.trace_seconds > 0:
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

    command = (f"python3 bench/run.py --workload W --seed {args.seed} --seconds {args.seconds:g}"
               " --trace 0 (end to end)")
    if per_layer:
        command += (f" and --seed {TRACE_SEED} --seconds {args.trace_seconds:g} --trace 1"
                    " (per layer)")
    record: dict[str, Any] = {
        "change": (f"tracked working tree at {_git(ROOT, 'rev-parse', 'HEAD')} against"
                   f" {parent_rev}"),
        "command": command + ", run from the root of each checkout",
        "method": (f"{args.pairs} pairs per workload, alternating which side runs first;"
                   " each value is the median of one window; 'change_wins' counts pairs"
                   " where the change reads better; 'parent_iqr' is the parent's"
                   " interquartile range (q3 - q1); 'pooled_runs' summarizes the single"
                   " runs (set-up probes for setup_s) of all windows of each side"
                   + ("; per-layer values come from one traced window per side"
                      if per_layer else "")),
        "environment": {"python": platform.python_version(), "numpy": version("numpy"),
                        "cpus": len(os.sched_getaffinity(0)), "blas": "one thread"},
        "end_to_end": end_to_end,
    }
    if per_layer:
        record[f"per_layer_seed{TRACE_SEED}_traced"] = per_layer
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

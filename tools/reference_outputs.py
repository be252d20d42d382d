"""Write the reference output trees of one source tree of ``landauer_bounds``.

    python tools/reference_outputs.py SRC_DIR OUT_DIR

Runs ``python -m landauer_bounds.cli run ... --plots`` with PYTHONPATH=SRC_DIR,
one process per run, into OUT_DIR/<run>: the built-in scenarios fig1, fig2 and
figS1, and the benchmark workloads pump, erase and erase-sweep at seed 0, whose
configs ``bench/scenarios.config_bytes`` writes. Two trees made this way from
two source trees are then compared with

    python tools/compare_outputs.py PARENT_OUT CHANGE_OUT

Prints one line per run; exits 1 when a run exits with a code other than 0, 2
on bad arguments and 0 otherwise. All six runs take a few seconds.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
SCENARIOS = ("fig1", "fig2", "figS1")


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

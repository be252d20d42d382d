"""Child processes of the benchmark; run with PYTHONPATH pointing at ``src``.

    python3 bench/child.py setup CLI-ARGS...
        Runs ``landauer_bounds.cli.main`` up to the point where the scenario
        config is built, prints the CLOCK_MONOTONIC time of that point in
        nanoseconds, and exits without running the scenario.

    python3 bench/child.py trace SPANS-FILE RUN-ID CLI-ARGS...
        Runs ``landauer_bounds.cli.main`` with tracing installed, writes the
        spans to SPANS-FILE and exits with the CLI's exit code.

    python3 bench/child.py environment
        Prints the numpy version and BLAS build the program runs with, as JSON.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path


def setup(cli_args: list[str]) -> int:
    from landauer_bounds import cli

    def config_built(config, raw=None):  # stands in for cli.run_scenario
        print(time.monotonic_ns())
        return cli.EXIT_OK

    cli.run_scenario = config_built
    return cli.main(cli_args)


def trace(spans_file: str, run_id: str, cli_args: list[str]) -> int:
    import tracing

    tracer = tracing.Tracer(run_id)
    code = tracing.install(tracer)(cli_args)
    tracer.dump(Path(spans_file))
    return code


def environment() -> int:
    import json

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(json.dumps({
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']} {blas.get('openblas configuration', '')}".strip(),
    }))
    return 0


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        sys.exit(setup(rest))
    if mode == "trace":
        sys.exit(trace(rest[0], rest[1], rest[2:]))
    if mode == "environment":
        sys.exit(environment())
    sys.exit(f"unknown mode {mode!r}")

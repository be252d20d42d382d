"""Mutation check of tier-1: which deliberate faults in src/ the tests catch.

    python tools/mutants.py [--out MUTANTS.json]

``MUTANTS`` is a fixed list of named text edits to files under src/, each of
which must match its file exactly once. The tracked and untracked, not ignored
files of this checkout are copied to a temporary directory; tier-1 runs there
once unchanged, and then once per mutant (with ``-x``, and without
tests/test_mutants.py, which the edit itself fails) on a copy that carries
that one edit. Writes a JSON record, MUTANTS.json at the root of this checkout
by default: per mutant its file, ``killed`` or ``survived``, the first failing
test and the seconds the run took. A mutant that survives takes a full tier-1
run (about 20 s on 2 CPUs), the list about 3.5 minutes. Exits 1 when tier-1
fails on the unchanged copy.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = Path("src/landauer_bounds")
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]


class Mutant(NamedTuple):
    name: str
    file: str  # under src/landauer_bounds
    old: str
    new: str


MUTANTS = (
    # np.min picks the same NaN or number as argmin: an equivalent mutant
    Mutant("worst-slack-np-min", "outputs.py",
           "worst = float(slacks[np.argmin(slacks)])", "worst = float(np.min(slacks))"),
    Mutant("verdict-tol-1e-3", "outputs.py", "VERDICT_TOL = 1e-6", "VERDICT_TOL = 1e-3"),
    Mutant("spectral-radius-limit-1e-3", "lindblad.py",
           "_SPECTRAL_RADIUS_LIMIT = 1.0 + 1e-9", "_SPECTRAL_RADIUS_LIMIT = 1.0 + 1e-3"),
    Mutant("step-drift-limit-1e-3", "lindblad.py",
           "_STEP_DRIFT_LIMIT = 1e-6", "_STEP_DRIFT_LIMIT = 1e-3"),
    Mutant("degeneracy-atol-1e-5", "qstate.py", "DEGENERACY_ATOL = 1e-9", "DEGENERACY_ATOL = 1e-5"),
    Mutant("qw-increments-undivided", "lindblad.py",
           "prepend=self.last[None, r:]).T / before", "prepend=self.last[None, r:]).T"),
    Mutant("gap-identity-times-0", "outputs.py",
           'add("gap_identity", -np.abs(bounds.gap - bounds.D_inst), partial=True)',
           'add("gap_identity", -np.abs(bounds.gap - bounds.D_inst) * 0.0, partial=True)'),
    Mutant("coherence-split-zero", "outputs.py",
           'add("coherence_split", -np.abs(bounds.dS - (bounds.dS_diag - bounds.dCoh)))',
           'add("coherence_split", np.zeros_like(bounds.dS))'),
    Mutant("norm-limit-1e3", "lindblad.py", "~(frob <= 10.0)", "~(frob <= 1e3)"),
    Mutant("saturation-threshold-7000", "thermo.py",
           "(levels[:n, -1] - levels[:n, 0]) > 700.0))",
           "(levels[:n, -1] - levels[:n, 0]) > 7000.0))"),
    Mutant("drop-dE-in-tilde", "thermo.py",
           "qu = (v0.E_S[0] - e_th0) + _scaled_product", "qu = _scaled_product"),
    Mutant("singular-weight-1e-6", "qstate.py",
           "SINGULAR_WEIGHT = 1e-12", "SINGULAR_WEIGHT = 1e-6"),
    Mutant("positivity-atol-1e-5", "qstate.py", "POSITIVITY_ATOL = 1e-9", "POSITIVITY_ATOL = 1e-5"),
    Mutant("cap-factor-1e4", "refsolve.py", "_CAP_FACTOR = 1e8", "_CAP_FACTOR = 1e4"),
    Mutant("coarse-step-1", "lindblad.py", "_COARSE_STEP = 0.1", "_COARSE_STEP = 1.0"),
    Mutant("no-sample-renormalization", "lindblad.py",
           "coords /= traces[:, None]", "coords /= 1.0"),
    # T L T^dag with the L P term subtracted instead of added
    Mutant("similarity-swapped-term-negated", "lindblad.py", "liou += swapped", "liou -= swapped"),
    Mutant("doubled-rates", "lindblad.py",
           "weighted = np.array([ch.rate for ch in channels])",
           "weighted = 2.0 * np.array([ch.rate for ch in channels])"),
    Mutant("jump-basis-rotated-0.2", "models.py",
           "np.cos(0.5 * th),\n" + " " * 38 + "np.sin(0.5 * th)",
           "np.cos(0.5 * (th + 0.2)),\n" + " " * 38 + "np.sin(0.5 * (th + 0.2))"),
    Mutant("omega-sign-flip", "models.py",
           "params.omega * (_dyad(i11, bright) + _dyad(i00, bright))",
           "params.omega * (_dyad(i11, bright) - _dyad(i00, bright))"),
    # each later block measured from its own first row instead of the run's sample 0
    Mutant("per-block-origin", "cli.py",
           "functools.partial(_evaluate, config, origin)",
           "functools.partial(_evaluate, config, None)"),
)


def first_failure(output: str) -> str | None:
    """The first FAILED or ERROR test id of a pytest summary, else None."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return None


def tier1(tree: Path, *extra: str) -> tuple[int, str, float]:
    """Exit code, output and seconds of tier-1 run in ``tree``."""
    start = time.monotonic()
    proc = subprocess.run([*TIER1, *extra], cwd=tree, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(tree / "src")))
    return proc.returncode, proc.stdout + proc.stderr, time.monotonic() - start


def copy_checkout(dest: Path) -> None:
    """The tracked and the untracked, not ignored files of this checkout, into dest."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], cwd=ROOT, check=True, capture_output=True,
                            text=True).stdout
    for name in filter(None, listed.split("\0")):
        if (ROOT / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=ROOT / "MUTANTS.json")
    args = parser.parse_args(argv)
    results = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        tree = Path(scratch)
        copy_checkout(tree)
        code, output, _ = tier1(tree)
        if code != 0:
            print(f"tier-1 fails on the unchanged copy:\n{output[-2000:]}", file=sys.stderr)
            return 1
        for mutant in MUTANTS:
            path = tree / SRC / mutant.file
            original = path.read_text()
            path.write_text(original.replace(mutant.old, mutant.new))
            try:
                code, output, seconds = tier1(tree, "-x", "--ignore=tests/test_mutants.py")
            finally:
                path.write_text(original)
            failed = first_failure(output) or (None if code == 0 else output.strip()[-200:])
            results.append({"name": mutant.name, "file": str(SRC / mutant.file),
                            "status": "survived" if code == 0 else "killed",
                            "first_failure": failed, "seconds": round(seconds, 1)})
            print(f"{mutant.name}: {results[-1]['status']} {failed or ''}", flush=True)
    args.out.write_text(json.dumps({"command": "python -m pytest -q -x (tier-1) per mutant",
                                    "mutants": results}, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

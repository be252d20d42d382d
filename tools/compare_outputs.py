"""Compare two output trees of ``landauer-bounds run`` file by file.

    python tools/compare_outputs.py PARENT_DIR CHANGE_DIR

Both trees must hold the same files. Two files agree when their bytes are
equal, or when their texts differ only in numbers and every number of
CHANGE_DIR lies within TOL * max(1, |v|) of the number v at the same place in
PARENT_DIR. Any other difference fails: a header, a flags cell, an empty cell
against a filled one, a JSON key, ``nan`` against a number. Prints one line
per differing file and the largest scaled number difference; exits 1 when a
file fails, 2 on bad arguments and 0 otherwise.
"""

from __future__ import annotations

import itertools
import math
import re
import sys
from pathlib import Path

TOL = 1e-12

# A decimal number as %.15g, %.2f or json.dumps write it; the text around the
# numbers (separators, names, flags, empty cells) must match exactly.
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _split(text: str) -> tuple[list[str], list[float]]:
    """The text between the numbers, and the numbers."""
    return _NUMBER.split(text), [float(x) for x in _NUMBER.findall(text)]


def compare_file(parent: Path, change: Path) -> tuple[str | None, float | None]:
    """(why the files differ or None, largest scaled number difference).

    The difference is None when the bytes are equal.
    """
    a, b = parent.read_bytes(), change.read_bytes()
    if a == b:
        return None, None
    try:
        lines_a, lines_b = a.decode().splitlines(), b.decode().splitlines()
    except UnicodeDecodeError:
        return "binary files differ", math.inf
    nums_a, nums_b = [], []
    for k, (x, y) in enumerate(itertools.zip_longest(lines_a, lines_b)):
        if x is None or y is None:
            return f"line counts differ ({len(lines_a)} against {len(lines_b)})", math.inf
        (text_x, nums_x), (text_y, nums_y) = _split(x), _split(y)
        if text_x != text_y:
            return f"non-numeric text differs on line {k + 1}", math.inf
        nums_a += nums_x
        nums_b += nums_y
    worst, where = 0.0, 0
    for k, (x, y) in enumerate(zip(nums_a, nums_b)):
        scaled = abs(y - x) / max(1.0, abs(x))
        if scaled > worst:
            worst, where = scaled, k
    if worst > TOL:
        return (f"number {nums_a[where]!r} became {nums_b[where]!r}"
                f" (scaled difference {worst:.3g} > {TOL:g})"), worst
    return None, worst


def compare_trees(parent: Path, change: Path) -> list[str]:
    """One message per failing file; prints a line per file that is not byte-identical."""
    names_a = {p.relative_to(parent) for p in parent.rglob("*") if p.is_file()}
    names_b = {p.relative_to(change) for p in change.rglob("*") if p.is_file()}
    failures = [f"{name}: only in {parent}" for name in sorted(names_a - names_b)]
    failures += [f"{name}: only in {change}" for name in sorted(names_b - names_a)]
    identical, worst = 0, 0.0
    for name in sorted(names_a & names_b):
        why, scaled = compare_file(parent / name, change / name)
        if why is not None:
            failures.append(f"{name}: {why}")
        elif scaled is None:
            identical += 1
        else:
            worst = max(worst, scaled)
            print(f"{name}: numbers within tolerance (largest scaled difference {scaled:.3g})")
    print(f"{identical} of {len(names_a & names_b)} common files byte-identical;"
          f" largest scaled difference in the others {worst:.3g}")
    return failures


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(Path(a).is_dir() for a in args):
        print("usage: python tools/compare_outputs.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    failures = compare_trees(Path(args[0]), Path(args[1]))
    for line in failures:
        print(f"FAIL {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Count the code, docstring, comment and blank lines of a package's modules.

    python tools/sloc.py SRC_DIR

Reads every ``*.py`` file under SRC_DIR and prints one row per module and a
total row: its code, docstring, comment and blank lines, and all of them. A
docstring line lies inside the string that is the first statement of a
module, class or def, as ``ast`` finds it, and is not blank; a comment line
starts with ``#`` after its indentation; a blank line holds only whitespace,
inside a docstring too; every other line is code.
Exits 2 on bad arguments and 0 otherwise.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based numbers of the lines that the docstrings of ``tree`` span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """The number of lines of each of ``KINDS`` in one module's ``source``."""
    docs = docstring_lines(ast.parse(source))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), 1):
        stripped = line.strip()
        kind = ("blank" if not stripped else "docstring" if number in docs
                else "comment" if stripped.startswith("#") else "code")
        counts[kind] += 1
    return counts


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not Path(args[0]).is_dir():
        print("usage: python tools/sloc.py SRC_DIR", file=sys.stderr)
        return 2
    root = Path(args[0])
    rows = [(str(path.relative_to(root)), count(path.read_text()))
            for path in sorted(root.rglob("*.py"))]
    rows.append(("total", {kind: sum(c[kind] for _, c in rows) for kind in KINDS}))
    width = max(len(name) for name, _ in rows)
    print(f"{'module':<{width}} " + " ".join(f"{kind:>9}" for kind in (*KINDS, "lines")))
    for name, counts in rows:
        print(f"{name:<{width}} " + " ".join(f"{counts[kind]:>9}" for kind in KINDS)
              + f" {sum(counts.values()):>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

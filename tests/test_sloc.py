import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "sloc", Path(__file__).resolve().parents[1] / "tools" / "sloc.py")
sloc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sloc)

MODULE = '''"""A module docstring

over three lines."""

import math  # a trailing comment leaves a line code

# a comment line
    # an indented one


class Shape:
    """One line."""

    sides = 0
    note = """a string that is no docstring
    spans two code lines"""

    def area(self):
        """Two
        lines."""
        "a second string statement is code"
        return math.pi


async def fetch():
    r\'\'\'A raw docstring.\'\'\'
'''


def test_counts_each_kind_of_line_of_a_synthetic_module():
    # docstrings: 1, 3 (2 is blank), 12, 19-20, 26; comments: 7, 8;
    # blank: 2, 4, 6, 9, 10, 13, 17, 23, 24
    assert sloc.count(MODULE) == {"code": 9, "docstring": 6, "comment": 2, "blank": 9}
    assert sum(sloc.count(MODULE).values()) == len(MODULE.splitlines())


def test_prints_a_row_per_module_and_a_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(MODULE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# done\n")
    assert sloc.main([str(tmp_path / "pkg")]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "code", "docstring", "comment", "blank", "lines"],
                    ["a.py", "9", "6", "2", "9", "26"],
                    ["b.py", "1", "0", "1", "1", "3"],
                    ["total", "10", "6", "3", "10", "29"]]
    assert sloc.main([str(tmp_path / "missing")]) == 2

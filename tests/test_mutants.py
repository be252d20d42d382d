import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "mutants", Path(__file__).resolve().parents[1] / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


def test_every_mutant_edits_src_exactly_once():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    for mutant in mutants.MUTANTS:
        text = (mutants.ROOT / mutants.SRC / mutant.file).read_text()
        assert mutant.old != mutant.new
        assert text.count(mutant.old) == 1, mutant.name


def test_first_failure_reads_the_pytest_summary():
    output = ("....F\n=== short test summary info ===\n"
              "FAILED tests/test_a.py::test_b[x-1e300] - AssertionError: 1 - 2\n"
              "!!! stopping after 1 failures !!!\n")
    assert mutants.first_failure(output) == "tests/test_a.py::test_b[x-1e300]"
    assert mutants.first_failure("ERROR tests/test_c.py - ImportError\n") == "tests/test_c.py"
    assert mutants.first_failure("5 passed in 0.1s\n") is None

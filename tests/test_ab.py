import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parents[1] / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

PARENT = [1.0, 1.2, 0.9, 1.1, 1.4, 1.0, 0.8, 1.3, 1.0, 1.2]
CHANGE = [0.7, 0.8, 0.9, 0.7, 1.5, 0.6, 0.7, 0.9, 0.8, 0.6]


def test_summary_of_lower_is_better():
    summary = ab.summarize(PARENT, CHANGE, "lower")
    assert summary["parent"] == PARENT and summary["change"] == CHANGE
    assert summary["parent_median"] == pytest.approx(1.05)
    assert summary["change_median"] == pytest.approx(0.75)
    # exclusive quartiles of the ten parent values: 0.975 and 1.225
    assert summary["parent_iqr"] == pytest.approx(0.25)
    # the change reads lower in 8 pairs; pair 3 ties and pair 5 reads higher
    assert summary["change_wins"] == 8
    assert summary["pairs"] == 10
    assert summary["relative_change"] == pytest.approx(0.75 / 1.05 - 1)


def test_summary_of_higher_is_better_counts_the_other_side():
    summary = ab.summarize(PARENT, CHANGE, "higher")
    assert summary["change_wins"] == 1

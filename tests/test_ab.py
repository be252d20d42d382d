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


def test_run_values_pool_the_untraced_runs_and_the_set_up_probes():
    result = {"setup_s": [0.2, 0.1, 0.3],
              "runs": [{"traced": False, "wall_s": 0.5, "peak_rss_mib": 40.0},
                       {"traced": True, "wall_s": 0.9, "peak_rss_mib": 44.0},
                       {"traced": False, "wall_s": 0.4, "peak_rss_mib": 39.0}]}
    assert ab.run_values(result) == {"run_s": [0.5, 0.4], "setup_s": [0.2, 0.1, 0.3],
                                     "peak_rss_mib": [40.0, 39.0]}


def test_pooled_runs_report_each_side_median_and_iqr():
    summary = ab.pooled(PARENT, CHANGE + [0.5])
    assert summary["parent_runs"] == 10 and summary["change_runs"] == 11
    assert summary["parent_median"] == pytest.approx(1.05)
    assert summary["change_median"] == pytest.approx(0.7)
    assert summary["parent_iqr"] == pytest.approx(0.25)
    # exclusive quartiles of the eleven change values: 0.6 and 0.9
    assert summary["change_iqr"] == pytest.approx(0.3)
    assert summary["relative_change"] == pytest.approx(0.7 / 1.05 - 1)

import importlib.util
import random
import subprocess
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


def test_both_checkouts_lie_at_paths_of_one_length(tmp_path):
    # the length of a checkout's path alone moves peak RSS, so both sides run from
    # trees extracted side by side; the change's tree holds its uncommitted edits
    def git(*args):
        return subprocess.run(["git", *args], cwd=tmp_path, check=True,
                              capture_output=True, text=True).stdout.strip()

    git("init", "-q")
    git("config", "user.name", "ab test")
    git("config", "user.email", "ab@example.invalid")
    (tmp_path / "module.py").write_text("VALUE = 1\n")
    git("add", "module.py")
    git("commit", "-q", "-m", "parent")
    parent = git("rev-parse", "HEAD")
    (tmp_path / "module.py").write_text("VALUE = 2\n")
    sides = ab.extract_checkouts(tmp_path, parent)
    assert len(str(sides["parent"])) == len(str(sides["change"]))
    assert sides["parent"] != sides["change"]
    assert (sides["parent"] / "module.py").read_text() == "VALUE = 1\n"
    assert (sides["change"] / "module.py").read_text() == "VALUE = 2\n"
    assert (tmp_path / "module.py").read_text() == "VALUE = 2\n"  # the edit stays uncommitted


def test_bootstrap_interval_covers_zero_without_a_shift_and_excludes_a_30_ms_one():
    # 20 pairs of run times whose spread (sd 50 ms) exceeds the shift: a change that
    # is the parent again reads an interval around 0; one that sleeps 30 ms more
    # in every run reads one above 0
    import numpy as np

    rng = np.random.default_rng(3)
    parent = (0.35 + rng.normal(0.0, 0.05, 20)).tolist()
    same = (0.35 + rng.normal(0.0, 0.05, 20)).tolist()
    noise = rng.normal(0.0, 0.005, 20)  # what a run's own jitter adds to each pair
    slower = (np.array(parent) + 0.03 + noise).tolist()

    null = ab.paired(parent, same, "lower")
    assert null["interval95"][0] < 0.0 < null["interval95"][1]
    assert not null["excludes_zero"]
    shifted = ab.paired(parent, slower, "lower")
    assert 0.0 < shifted["interval95"][0] <= shifted["median_difference"]
    assert shifted["median_difference"] <= shifted["interval95"][1] < 0.06
    assert shifted["excludes_zero"]
    assert shifted["change_wins"] == 0 and shifted["change_losses"] == 20
    assert ab.bootstrap_interval([0.1, 0.2, 0.3]) == ab.bootstrap_interval([0.1, 0.2, 0.3])


def test_paired_counts_signs_and_ties():
    summary = ab.paired(PARENT, CHANGE, "lower")
    # differences -0.6, -0.4 (four times), -0.3, -0.2, -0.1, 0 (a tie) and 0.1
    assert summary["median_difference"] == pytest.approx(-0.35)
    assert summary["change_wins"] == 8 and summary["change_losses"] == 1
    assert summary["pairs"] == 10
    assert ab.paired(PARENT, CHANGE, "higher")["change_wins"] == 1


def test_abba_orders_come_in_complementary_blocks():
    orders = ab.abba_orders(9, random.Random(0))
    assert len(orders) == 9
    for first, second in zip(orders[0:8:2], orders[1:8:2]):
        assert second == first[::-1]
    assert set(orders) == {("parent", "change"), ("change", "parent")}
    assert orders == ab.abba_orders(9, random.Random(0))

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "compare_outputs", Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)

BOUNDS = ("t,Q,gap_P,flags\r\n"
          "0,0,0.5,degenerate_spectrum\r\n"
          "1,0.123456789012345,,degenerate_spectrum;saturated\r\n")
META = {"reference": {"beta_R0": 30.000000000000004},
        "verdicts": {"heat_upper": {"holds": True, "worst_slack": 0.125}}}


def write_tree(root, bounds=BOUNDS, meta=META):
    (root / "run").mkdir(parents=True)
    (root / "run" / "bounds.csv").write_text(bounds, newline="")
    (root / "run" / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("bounds, meta, code", [
    (BOUNDS, META, 0),
    # within 1e-12 * max(1, |v|), also on a value above 1
    (BOUNDS.replace("0.123456789012345", "0.123456789012346"),
     {**META, "reference": {"beta_R0": 30.00000000000003}}, 0),
    (BOUNDS.replace("0.123456789012345", "0.12345678902"), META, 1),
    (BOUNDS.replace("gap_P", "gap"), META, 1),
    (BOUNDS.replace(";saturated", ""), META, 1),
    (BOUNDS.replace(",,", ",0,"), META, 1),
    (BOUNDS.replace("0.5", "nan"), META, 1),
    (BOUNDS, {**META, "verdicts": {"heat_lower_flipped": META["verdicts"]["heat_upper"]}}, 1),
    (BOUNDS, {**META, "verdicts": {"heat_upper": {"holds": False, "worst_slack": 0.125}}}, 1),
    (BOUNDS + "2,0,0,\r\n", META, 1),
    (None, META, 1),
], ids=["identical", "within-tolerance", "beyond-tolerance", "header", "flags-cell",
        "empty-against-filled", "nan-against-number", "json-key", "json-bool",
        "extra-row", "missing-file"])
def test_compare_outputs(tmp_path, bounds, meta, code):
    write_tree(tmp_path / "parent")
    write_tree(tmp_path / "change", BOUNDS if bounds is None else bounds, meta)
    if bounds is None:
        (tmp_path / "change" / "run" / "bounds.csv").unlink()
    assert compare_outputs.main([str(tmp_path / "parent"), str(tmp_path / "change")]) == code

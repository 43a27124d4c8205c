"""`tools/fingerprint.py --compare`: its report and its exit status, on small
hand-written digest files (no dvokit run)."""

import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"
_PARENT = {"eval/json": "0123abcd", "values/direct/pose-0": {"final_loss": 0.5, "curve": [1.0, 0.75]}}


@pytest.fixture(scope="module")
def fingerprint():
    spec = importlib.util.spec_from_file_location("fingerprint", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _compare(fingerprint, tmp_path, change):
    paths = [tmp_path / "parent.json", tmp_path / "change.json"]
    for path, digests in zip(paths, (_PARENT, change)):
        path.write_text(json.dumps(digests))
    return fingerprint.main(["fingerprint.py", "--compare", *map(str, paths)])


def test_identical_files_exit_0(fingerprint, tmp_path, capsys):
    assert _compare(fingerprint, tmp_path, _PARENT) == 0
    assert capsys.readouterr().out == "all 2 items identical\n"


@pytest.mark.parametrize(
    "change,line",
    [
        ({**_PARENT, "eval/json": "0123abce"}, "eval/json: differs"),
        ({**_PARENT, "op/ssim": "ff"}, "op/ssim: only in change"),
    ],
    ids=["changed-digest", "one-side-only"],
)
def test_a_differing_item_exits_1_and_is_named(fingerprint, tmp_path, capsys, change, line):
    assert _compare(fingerprint, tmp_path, change) == 1
    assert capsys.readouterr().out == f"{line}\n"


def test_a_changed_number_prints_its_relative_difference(fingerprint, tmp_path, capsys):
    change = {**_PARENT, "values/direct/pose-0": {"final_loss": 0.5, "curve": [1.0, 0.8]}}
    assert _compare(fingerprint, tmp_path, change) == 1
    # |0.75 - 0.8| / 0.8
    assert capsys.readouterr().out == "values/direct/pose-0: largest relative difference 0.0625\n"

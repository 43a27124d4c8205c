"""`tools/fingerprint.py`: the report and exit status of `--compare`, on small
hand-written digest files, and `_array_summaries` (no dvokit run)."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"
_PARENT = {"eval/json": "0123abcd", "values/direct/pose-0": {"final_loss": 0.5, "curve": [1.0, 0.75]}}


@pytest.fixture(scope="module")
def fingerprint():
    spec = importlib.util.spec_from_file_location("fingerprint", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _compare(fingerprint, tmp_path, change, parent=_PARENT, flags=()):
    paths = [tmp_path / "parent.json", tmp_path / "change.json"]
    for path, digests in zip(paths, (parent, change)):
        path.write_text(json.dumps(digests))
    return fingerprint.main(["fingerprint.py", "--compare", *flags, *map(str, paths)])


def test_identical_files_exit_0(fingerprint, tmp_path, capsys):
    assert _compare(fingerprint, tmp_path, _PARENT) == 0
    assert capsys.readouterr().out == "all 2 items identical\n"


@pytest.mark.parametrize(
    "change,out",
    [
        ({**_PARENT, "eval/json": "0123abce"}, "eval/json: differs\n"),
        ({**_PARENT, "eval/json": "0123abce", "op/ssim": "ff"}, "eval/json: differs\nop/ssim: only in change\n"),
    ],
    ids=["changed-digest", "changed-digest-and-one-side-only"],
)
def test_a_differing_item_exits_1_and_is_named(fingerprint, tmp_path, capsys, change, out):
    assert _compare(fingerprint, tmp_path, change) == 1
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("flags", [(), ("--rtol", "1e-12")], ids=["exact", "rtol"])
def test_items_on_one_side_only_exit_3_and_are_listed_apart(fingerprint, tmp_path, capsys, flags):
    parent, change = {**_PARENT, "nn/Conv1x1": "aa"}, {**_PARENT, "op/ssim": "ff"}
    assert _compare(fingerprint, tmp_path, change, parent, flags) == 3
    within = " or within rtol 1e-12" if flags else ""
    want = f"all 2 shared items identical{within}\nnn/Conv1x1: only in parent\nop/ssim: only in change\n"
    assert capsys.readouterr().out == want


def test_a_changed_number_prints_its_relative_difference(fingerprint, tmp_path, capsys):
    change = {**_PARENT, "values/direct/pose-0": {"final_loss": 0.5, "curve": [1.0, 0.8]}}
    assert _compare(fingerprint, tmp_path, change) == 1
    # |0.75 - 0.8| / 0.8
    assert capsys.readouterr().out == "values/direct/pose-0: largest relative difference 0.0625\n"


# --rtol: a digest item is judged by its values/ twin
_TWINNED = {"direct/pose-0": "00aa", "values/direct/pose-0": {"final_loss": 0.5, "curve": [1.0, 0.75]}}


def _compare_rtol(fingerprint, tmp_path, parent, change):
    return _compare(fingerprint, tmp_path, change, parent, ("--rtol", "1e-12"))


def test_rtol_passes_identical_files(fingerprint, tmp_path, capsys):
    assert _compare_rtol(fingerprint, tmp_path, _TWINNED, _TWINNED) == 0
    assert capsys.readouterr().out == "all 2 items identical or within rtol 1e-12\n"


def test_rtol_passes_an_item_whose_twin_moved_within_it(fingerprint, tmp_path, capsys):
    # 0.75 * (1 + 1e-13): relative difference ~1e-13
    change = {"direct/pose-0": "00ab", "values/direct/pose-0": {"final_loss": 0.5, "curve": [1.0, 0.75 + 7.5e-14]}}
    assert _compare_rtol(fingerprint, tmp_path, _TWINNED, change) == 0
    assert capsys.readouterr().out == "all 2 items identical or within rtol 1e-12\n"


def test_rtol_lists_a_twin_beyond_it(fingerprint, tmp_path, capsys):
    change = {"direct/pose-0": "00ab", "values/direct/pose-0": {"final_loss": 0.5, "curve": [1.0, 0.8]}}
    assert _compare_rtol(fingerprint, tmp_path, _TWINNED, change) == 1
    assert capsys.readouterr().out == "values/direct/pose-0: largest relative difference 0.0625, beyond 1e-12\n"


def test_rtol_lists_a_differing_item_with_no_twin(fingerprint, tmp_path, capsys):
    parent, change = {**_TWINNED, "eval/json": "0123abcd"}, {**_TWINNED, "eval/json": "0123abce"}
    assert _compare_rtol(fingerprint, tmp_path, parent, change) == 1
    assert capsys.readouterr().out == "eval/json: differs, with no values/ twin\n"


def test_rtol_lists_a_differing_item_whose_twin_does_not_differ(fingerprint, tmp_path, capsys):
    # a checkpoint written negated or reordered can leave summaries that miss it unchanged
    change = {**_TWINNED, "direct/pose-0": "00ab"}
    assert _compare_rtol(fingerprint, tmp_path, _TWINNED, change) == 1
    assert capsys.readouterr().out == "direct/pose-0: differs, but its values/ twin does not\n"


@pytest.mark.parametrize("move", [np.negative, np.flip], ids=["negated", "reordered"])
def test_array_summaries_see_a_negated_or_reordered_array(fingerprint, move):
    a = np.array([0.5, -0.25, 2.0, 1e-20])
    before, after = (fingerprint._array_summaries({"w": v})["w"] for v in (a, move(a)))
    assert before != after


def test_array_summaries_of_a_float32_array_are_those_of_its_float64_widening(fingerprint):
    # a format 3 checkpoint stores float32 arrays, a format 2 one their float64 widening
    narrow = np.random.default_rng(0).normal(size=1000).astype(np.float32)
    summaries = fingerprint._array_summaries({"w": narrow})["w"]
    assert summaries == fingerprint._array_summaries({"w": narrow.astype(np.float64)})["w"]
    assert summaries[1] != float((narrow * narrow).sum())  # what summing in float32 would give

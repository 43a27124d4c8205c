"""Robustness of the on-disk readers and writers: PPM payloads that start with
whitespace byte values, truncated or malformed checkpoints, and checkpoint
writes that fail midway."""

import json

import numpy as np
import pytest

from dvokit import formats
from dvokit.formats import DataError
from dvokit.model import load_checkpoint, save_checkpoint


@pytest.mark.parametrize("first_byte", [9, 10, 11, 12, 13, 32])
def test_ppm_payload_may_start_with_a_whitespace_byte(tmp_path, first_byte):
    payload = bytes([first_byte, 0, 255, 7, 32, 9, 10, 13, 11, 12, 200, 100])
    path = tmp_path / "ws.ppm"
    path.write_bytes(b"P6\n2 2\n255\n" + payload)
    img = formats.read_ppm(path)
    expected = np.moveaxis(np.frombuffer(payload, dtype=np.uint8).reshape(2, 2, 3), -1, 0) / 255.0
    assert np.array_equal(img, expected)


_CONFIG = {"model": {"patch_size": 8}, "extra": {"epoch": 0}}
_ARRAYS = {"a.weight": np.arange(6.0).reshape(2, 3), "b.bias": np.array([1.5, -2.0])}


def _checkpoint(tmp_path):
    path = tmp_path / "good.dvoc"
    save_checkpoint(path, _ARRAYS, _CONFIG)
    return path, path.read_bytes()


def _cuts():
    """Byte offsets inside the header, the JSON, the first name and the first array."""
    json_len = len(json.dumps(_CONFIG, sort_keys=True).encode("utf-8"))
    first_blob = 12 + json_len
    name = first_blob + 4
    array = name + len("a.weight") + 4 + 2 * 4
    return {"header": 6, "json": 12 + json_len // 2, "name": name + 3, "array": array + 20}


@pytest.mark.parametrize("where", ["header", "json", "name", "array"])
def test_truncated_checkpoint_raises_data_error_naming_the_path(tmp_path, where):
    _, raw = _checkpoint(tmp_path)
    cut = tmp_path / f"cut-{where}.dvoc"
    cut.write_bytes(raw[: _cuts()[where]])
    with pytest.raises(DataError, match=f"cut-{where}.dvoc"):
        load_checkpoint(cut)


def test_malformed_checkpoint_json_raises_data_error(tmp_path):
    _, raw = _checkpoint(tmp_path)
    bad = tmp_path / "bad.dvoc"
    bad.write_bytes(raw[:12] + b"\xff" * (_cuts()["name"] - 4 - 12) + raw[_cuts()["name"] - 4 :])
    with pytest.raises(DataError, match="bad.dvoc"):
        load_checkpoint(bad)


def test_failed_checkpoint_write_keeps_the_previous_file(tmp_path):
    path, raw = _checkpoint(tmp_path)
    with pytest.raises(ValueError):
        save_checkpoint(path, {"0.bad": np.array(["not a number"]), **_ARRAYS}, _CONFIG)
    assert path.read_bytes() == raw
    assert [p.name for p in tmp_path.iterdir()] == [path.name]

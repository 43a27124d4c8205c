"""Robustness of the on-disk readers and writers: PPM payloads that start with
whitespace byte values, truncated or malformed checkpoints (a cut exactly
between two arrays included), checkpoint writes that fail midway, malformed
dataset manifests and frame files, and NaN or infinite values in manifests,
depth maps, dynamic masks and trajectories."""

import json
import re
import shutil

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
    return {
        "header": 6,
        "json": 12 + json_len // 2,
        "name": name + 3,
        "array": array + 20,
        "between-arrays": array + 6 * 8,
    }


@pytest.mark.parametrize("where", ["header", "json", "name", "array", "between-arrays"])
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


def test_checkpoint_of_an_older_version_is_refused(tmp_path):
    _, raw = _checkpoint(tmp_path)
    old = tmp_path / "v1.dvoc"
    old.write_bytes(raw[:4] + (1).to_bytes(4, "little") + raw[8:-8])
    with pytest.raises(DataError, match="unsupported checkpoint version 1 in .*v1.dvoc"):
        load_checkpoint(old)


def test_checkpoint_whose_footer_miscounts_its_arrays_raises(tmp_path):
    _, raw = _checkpoint(tmp_path)
    bad = tmp_path / "miscount.dvoc"
    bad.write_bytes(raw[:-4] + (len(_ARRAYS) + 1).to_bytes(4, "little"))
    with pytest.raises(DataError, match="miscount.dvoc"):
        load_checkpoint(bad)


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    from dvokit.synth import MotionSpec, default_intrinsics, generate_trajectory, preset_scene

    k = default_intrinsics(16)
    frames = generate_trajectory(
        preset_scene("dynamic-room", seed=1), k, 3, MotionSpec(kind="line", step=(0.01, 0.0, 0.05)),
        np.random.default_rng(0),
    )
    root = tmp_path_factory.mktemp("dataset")
    formats.save_dataset(root, frames, k, seed=1, scene_name="dynamic-room")
    return root


def _negative_index(m):
    m["pairs"][0]["a"] = -1  # would pair the last frame


def _index_past_the_end(m):
    m["pairs"][0]["b"] = len(m["frames"])


def _float_index(m):
    m["pairs"][0]["a"] = 0.0


def _no_rel_pose(m):
    del m["pairs"][0]["rel_pose"]


def _frame_without_image(m):
    del m["frames"][1]["image"]


def _frame_file_name_not_a_string(m):
    m["frames"][0]["image"] = 5


def _intrinsics_without_fx(m):
    del m["intrinsics"]["fx"]


def _negative_focal_length(m):
    m["intrinsics"]["fx"] = -1.0


def _nan_focal_length(m):
    m["intrinsics"]["fx"] = float("nan")  # written as JSON NaN


def _infinite_translation(m):
    m["pairs"][0]["rel_pose"]["translation"][0] = float("inf")  # written as JSON Infinity


def _fractional_width(m):
    m["intrinsics"]["width"] = 16.7  # int() would load it as 16


def _boolean_height(m):
    m["intrinsics"]["height"] = True


def _frames_not_a_list(m):
    m["frames"] = 3


def _pairs_not_a_list(m):
    m["pairs"] = {"0": m["pairs"][0]}


def _pair_not_an_object(m):
    m["pairs"][0] = [0, 1]


def _frame_not_an_object(m):
    m["frames"][0] = "image depth"  # `"image" in entry` holds for this string


@pytest.mark.parametrize(
    "corrupt",
    [
        _negative_index,
        _index_past_the_end,
        _float_index,
        _no_rel_pose,
        _frame_without_image,
        _frame_file_name_not_a_string,
        _intrinsics_without_fx,
        _negative_focal_length,
        _nan_focal_length,
        _infinite_translation,
        _fractional_width,
        _boolean_height,
        _frames_not_a_list,
        _pairs_not_a_list,
        _pair_not_an_object,
        _frame_not_an_object,
    ],
)
def test_malformed_manifest_entry_raises_data_error_naming_the_manifest(tmp_path, dataset_dir, corrupt):
    root = tmp_path / "copy"
    shutil.copytree(dataset_dir, root)
    manifest = json.loads((root / "manifest.json").read_text())
    corrupt(manifest)
    formats.write_manifest(root / "manifest.json", manifest)
    with pytest.raises(DataError, match=re.escape(str(root / "manifest.json"))):
        formats.load_pairs(root)



def _deleted_frame(root):
    (root / "frame_00002.ppm").unlink()
    return "frame_00002.ppm"


def _smaller_frame(root):
    formats.write_ppm(root / "frame_00001.ppm", np.full((3, 8, 8), 0.5))  # the intrinsics say 16 px
    return "frame_00001.ppm"


def _zero_depth(root):
    depth = formats.read_pfm(root / "depth_00001.pfm")
    depth[3, 4] = 0.0
    formats.write_pfm(root / "depth_00001.pfm", depth)
    return "depth_00001.pfm"


def _nan_depth(root):
    depth = formats.read_pfm(root / "depth_00002.pfm")
    depth[0, 0] = np.nan
    formats.write_pfm(root / "depth_00002.pfm", depth)
    return "depth_00002.pfm"


def _nan_dynamic_mask(root):
    mask = formats.read_pfm(root / "dynmask_00000.pfm")
    mask[:] = np.nan  # `> 0.5` would load it as all static
    formats.write_pfm(root / "dynmask_00000.pfm", mask)
    return "dynmask_00000.pfm"


def _negative_pfm_size(root):
    (root / "depth_00000.pfm").write_bytes(b"Pf\n-2 -2\n-1.0\n" + np.ones(4, dtype="<f4").tobytes())
    return "depth_00000.pfm"


@pytest.mark.parametrize(
    "corrupt", [_deleted_frame, _smaller_frame, _zero_depth, _nan_depth, _nan_dynamic_mask, _negative_pfm_size]
)
def test_bad_frame_file_raises_data_error_naming_the_manifest_and_the_file(tmp_path, dataset_dir, corrupt):
    root = tmp_path / "copy"
    shutil.copytree(dataset_dir, root)
    bad_file = root / corrupt(root)
    with pytest.raises(DataError, match=re.escape(str(root / "manifest.json"))) as err:
        formats.load_pairs(root)
    assert str(bad_file) in str(err.value)


@pytest.mark.parametrize(
    "line",
    [
        "0 nan 0 0 0 0 0 1",  # translation
        "0 0 0 inf 0 0 0 1",
        "0 0 0 0 nan 0 0 1",  # quaternion: the unit-norm check alone passes NaN
        "nan 0 0 0 0 0 0 1",  # timestamp
    ],
)
def test_non_finite_trajectory_field_raises_data_error_naming_the_line(tmp_path, line):
    path = tmp_path / "traj.tum"
    path.write_text("0 0 0 0 0 0 0 1\n" + line + "\n")
    with pytest.raises(DataError, match=re.escape(f"{path}:2")):
        formats.read_tum(path)

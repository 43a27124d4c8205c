"""Robustness of the on-disk readers and writers: PPM payloads that start with
whitespace byte values, truncated or malformed checkpoints (a cut exactly
between two arrays included), checkpoint writes that fail midway, malformed
dataset manifests and frame files, and NaN or infinite values in manifests,
depth maps and dynamic masks."""

import json
import re
import shutil
import struct
import warnings
import zlib

import numpy as np
import pytest

from dvokit import formats
from dvokit.formats import DataError
from dvokit.model import load_checkpoint, save_checkpoint
from dvokit.synth import default_intrinsics


@pytest.mark.parametrize("first_byte", [9, 10, 11, 12, 13, 32])
def test_ppm_payload_may_start_with_a_whitespace_byte(tmp_path, first_byte):
    payload = bytes([first_byte, 0, 255, 7, 32, 9, 10, 13, 11, 12, 200, 100])
    path = tmp_path / "ws.ppm"
    path.write_bytes(b"P6\n2 2\n255\n" + payload)
    img = formats.read_ppm(path)
    expected = np.moveaxis(np.frombuffer(payload, dtype=np.uint8).reshape(2, 2, 3), -1, 0) / 255.0
    assert np.array_equal(img, expected)


_CONFIG = {"model": {"patch_size": 8}, "extra": {"epoch": 0}}
_ARRAYS = {"a.weight": np.arange(6.0).reshape(2, 3), "b.bias": np.array([1.5, -2.0], dtype=np.float32)}


def _checkpoint(tmp_path):
    path = tmp_path / "good.dvoc"
    save_checkpoint(path, _ARRAYS, _CONFIG)
    return path, path.read_bytes()


def _cuts():
    """Byte offsets inside the header, the JSON, the first name, the first
    (f8) array, between the two arrays, and inside the second (f4) array."""
    json_len = len(json.dumps(_CONFIG, sort_keys=True).encode("utf-8"))
    first_blob = 12 + json_len
    name = first_blob + 4
    array = name + len("a.weight") + 4 + 4 + 2 * 4  # item size, rank, 2 extents
    second = array + 6 * 8 + 4 + len("b.bias") + 4 + 4 + 4
    return {
        "header": 6,
        "json": 12 + json_len // 2,
        "name": name + 3,
        "item-size": name + len("a.weight"),
        "array": array + 20,
        "between-arrays": array + 6 * 8,
        "f4-array": second + 4,
    }


@pytest.mark.parametrize("where", ["header", "json", "name", "array", "between-arrays", "f4-array"])
def test_truncated_checkpoint_raises_data_error_naming_the_path(tmp_path, where):
    _, raw = _checkpoint(tmp_path)
    cut = tmp_path / f"cut-{where}.dvoc"
    cut.write_bytes(raw[: _cuts()[where]])
    with pytest.raises(DataError, match=f"cut-{where}.dvoc"):
        load_checkpoint(cut)


def test_checkpoint_layout_is_as_documented(tmp_path):
    # what the cuts above assume: the end of the f4 array is the footer
    _, raw = _checkpoint(tmp_path)
    at = _cuts()
    assert raw[at["item-size"] : at["item-size"] + 4] == struct.pack("<I", 8)
    assert raw[at["between-arrays"] + 4 : at["between-arrays"] + 10] == b"b.bias"
    assert raw[at["f4-array"] - 16 : at["f4-array"] - 4] == struct.pack("<3I", 4, 1, 2)  # item size, rank, extent
    assert raw[at["f4-array"] - 4 : -8] == _ARRAYS["b.bias"].astype("<f4").tobytes()


def test_truncated_f4_payload_with_its_footer_raises_data_error_naming_the_path(tmp_path):
    # the footer is kept, so only the payload's own length check can catch the cut
    _, raw = _checkpoint(tmp_path)
    cut = tmp_path / "short-f4.dvoc"
    cut.write_bytes(raw[: _cuts()["f4-array"]] + raw[-8:])
    with pytest.raises(DataError, match=re.escape(f"checkpoint {cut} is truncated")):
        load_checkpoint(cut)


@pytest.mark.parametrize("itemsize", [0, 2, 16, 2**32 - 1])
def test_checkpoint_record_whose_item_size_is_not_4_or_8_raises_data_error_naming_the_path(tmp_path, itemsize):
    _, raw = _checkpoint(tmp_path)
    at = _cuts()["item-size"]
    bad = tmp_path / "itemsize.dvoc"
    bad.write_bytes(raw[:at] + struct.pack("<I", itemsize) + raw[at + 4 :])
    expected = f"malformed checkpoint {bad}: array 'a.weight' has item size {itemsize}, not 4 or 8"
    with pytest.raises(DataError, match=re.escape(expected)):
        load_checkpoint(bad)


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
    for version in (1, 2):
        old = tmp_path / f"v{version}.dvoc"
        old.write_bytes(raw[:4] + version.to_bytes(4, "little") + raw[8:-8])
        with pytest.raises(DataError, match=f"unsupported checkpoint version {version} in .*v{version}.dvoc"):
            load_checkpoint(old)


def test_checkpoint_of_a_newer_version_is_refused(tmp_path):
    _, raw = _checkpoint(tmp_path)
    for version in (4, 2**32 - 1):
        new = tmp_path / f"v{version}.dvoc"
        new.write_bytes(raw[:4] + version.to_bytes(4, "little") + raw[8:])
        with pytest.raises(DataError, match=f"unsupported checkpoint version {version} in .*v{version}.dvoc"):
            load_checkpoint(new)


def test_a_record_without_its_item_size_raises_data_error_naming_the_path(tmp_path):
    # a record laid out as format version 2 wrote it (no item size) under a
    # version 3 header: its rank, 2, is read as the item size
    _, raw = _checkpoint(tmp_path)
    at = _cuts()["item-size"]
    bad = tmp_path / "no-itemsize.dvoc"
    bad.write_bytes(raw[:at] + raw[at + 4 :])
    expected = f"malformed checkpoint {bad}: array 'a.weight' has item size 2, not 4 or 8"
    with pytest.raises(DataError, match=re.escape(expected)):
        load_checkpoint(bad)


@pytest.mark.parametrize("dtype", ["<f4", "<f8"], ids=["f4", "f8"])
def test_checkpoint_array_of_zero_size_round_trips(tmp_path, dtype):
    arrays = {"empty": np.zeros((0, 3), dtype=dtype), **_ARRAYS}
    path = tmp_path / "empty.dvoc"
    save_checkpoint(path, arrays, _CONFIG)
    config, loaded = load_checkpoint(path)
    assert config == _CONFIG and loaded.keys() == arrays.keys()
    for name, value in loaded.items():
        assert value.dtype == arrays[name].dtype and np.array_equal(value, arrays[name]), name
    assert loaded["empty"].shape == (0, 3)


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


def _boolean_focal_length(m):
    m["intrinsics"]["fx"] = True  # float() would load it as 1.0


def _string_focal_length(m):
    m["intrinsics"]["fx"] = str(m["intrinsics"]["fx"])


def _huge_integer_translation(m):
    m["pairs"][0]["rel_pose"]["translation"] = [10**400, 0, 0]  # float() overflows


def _string_translation(m):
    m["pairs"][0]["rel_pose"]["translation"] = ["0.1", "0", "0"]


def _boolean_quaternion(m):
    m["pairs"][0]["rel_pose"]["quaternion_xyzw"] = [False, False, False, True]


def _quaternion_of_norm_5(m):
    m["pairs"][0]["rel_pose"]["quaternion_xyzw"] = [0.0, 0.0, 3.0, 4.0]  # load_pairs asks for a norm within 1e-6 of 1


def _quaternion_whose_norm_overflows(m):
    # the suite turns warnings into errors, so an overflow warning of the norm would fail this first
    m["pairs"][0]["rel_pose"]["quaternion_xyzw"] = [1e200, 0.0, 0.0, 1.0]


def _quaternion_of_3_entries(m):
    m["pairs"][0]["rel_pose"]["quaternion_xyzw"] = [0.0, 0.0, 1.0]


def _translation_of_2_entries(m):
    m["pairs"][0]["rel_pose"]["translation"] = [0.1, 0.0]


def _nested_translation(m):
    m["pairs"][0]["rel_pose"]["translation"] = [[0.1], 0.0, 0.0]


def _null_quaternion(m):
    m["pairs"][0]["rel_pose"]["quaternion_xyzw"] = None


def _rel_pose_not_an_object(m):
    m["pairs"][0]["rel_pose"] = [0.1, 0.0, 0.0]


def _null_intrinsics(m):
    m["intrinsics"] = None


def _zero_width(m):
    m["intrinsics"]["width"] = 0


def _negative_height(m):
    m["intrinsics"]["height"] = -16


def _huge_integer_focal_length(m):
    m["intrinsics"]["fx"] = 10**400  # float() overflows


def _frame_without_depth(m):
    del m["frames"][0]["depth"]


def _depth_file_name_not_a_string(m):
    m["frames"][2]["depth"] = 3


def _dynamic_mask_file_name_not_a_string(m):
    m["frames"][0]["dynamic_mask"] = None


def _boolean_index(m):
    m["pairs"][0]["a"] = True  # an int subclass, so it would pair frame 1


def _string_index(m):
    m["pairs"][0]["b"] = "1"


def _pair_without_b(m):
    del m["pairs"][1]["b"]


def _manifest_without_pairs(m):
    del m["pairs"]


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
        _boolean_focal_length,
        _string_focal_length,
        _string_translation,
        _huge_integer_translation,
        _boolean_quaternion,
        _quaternion_of_norm_5,
        _quaternion_whose_norm_overflows,
        _quaternion_of_3_entries,
        _translation_of_2_entries,
        _nested_translation,
        _null_quaternion,
        _rel_pose_not_an_object,
        _null_intrinsics,
        _zero_width,
        _negative_height,
        _huge_integer_focal_length,
        _frame_without_depth,
        _depth_file_name_not_a_string,
        _dynamic_mask_file_name_not_a_string,
        _boolean_index,
        _string_index,
        _pair_without_b,
        _manifest_without_pairs,
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



@pytest.mark.parametrize(
    "key, literal",
    [
        ("translation", "1e400"),  # JSON parses it as inf, without parse_constant
        ("quaternion_xyzw", "-1e400"),
        ("fx", "1e400"),
        ("quaternion_xyzw", "NaN"),  # a NaN norm passes the unit check
        ("scene", '"caf\xe9"'),  # written as Latin-1, not UTF-8
        ("a", "0 1"),  # not JSON
    ],
)
def test_manifest_text_that_is_not_a_valid_manifest_raises_data_error_naming_it(tmp_path, dataset_dir, key, literal):
    # the first value of the first `key` (or of its list) becomes `literal`
    root = tmp_path / "copy"
    shutil.copytree(dataset_dir, root)
    text = (root / "manifest.json").read_text()
    text, n = re.subn(rf'("{key}": \[?\s*)[^,\s\]]+', lambda m: m[1] + literal, text, count=1)
    assert n == 1
    (root / "manifest.json").write_bytes(text.encode("latin-1"))
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


def test_ppm_header_number_of_5000_digits_raises_data_error(tmp_path):
    # int() refuses more than 4,300 digits with a bare ValueError
    path = tmp_path / "wide.ppm"
    path.write_bytes(b"P6\n" + b"9" * 5000 + b" 2\n255\n" + bytes(12))
    with pytest.raises(DataError, match=re.escape(str(path))):
        formats.read_ppm(path)


def test_pfm_payload_whose_length_is_not_a_multiple_of_4_raises_data_error(tmp_path):
    # 41 bytes where a 5x4 map needs 80: decoding them first raised a bare ValueError
    path = tmp_path / "short.pfm"
    path.write_bytes(b"Pf\n5 4\n-1.0\n" + bytes(41))
    with pytest.raises(DataError, match=re.escape(str(path))):
        formats.read_pfm(path)


@pytest.mark.parametrize("itemsize", [4, 8], ids=["v3-f4", "v3-f8"])
def test_checkpoint_array_of_zero_size_whose_other_extents_overflow_raises_data_error(tmp_path, itemsize):
    # (0, 2^32 - 1, 2^32 - 1) holds no bytes, so the size check passes, but
    # numpy cannot allocate it: the product of its other extents overflows
    from dvokit import model

    blob = b"{}"
    raw = model._MAGIC + struct.pack("<II", 3, len(blob)) + blob
    raw += struct.pack("<I", 1) + b"x" + struct.pack("<II3I", itemsize, 3, 0, 2**32 - 1, 2**32 - 1)
    path = tmp_path / "huge.dvoc"
    path.write_bytes(raw + model._END_MAGIC + struct.pack("<I", 1))
    with pytest.raises(DataError, match=re.escape(str(path))):
        load_checkpoint(path)


def _write_manifest(path):
    rel = {"translation": [0.1, 0.0, 0.02], "quaternion_xyzw": [0.0, 0.0, 0.0, 1.0]}
    frames = [{"image": f"frame_{i:05d}.ppm", "depth": f"depth_{i:05d}.pfm"} for i in range(2)]
    pairs = [{"a": 0, "b": 1, "rel_pose": rel}]
    formats.write_manifest(path, {"intrinsics": default_intrinsics(16).to_dict(), "frames": frames, "pairs": pairs})


# reader: (write a small valid file, read one)
_READERS = {
    "read_ppm": (lambda path: formats.write_ppm(path, np.random.default_rng(0).random((3, 4, 5))), formats.read_ppm),
    "read_pfm": (lambda path: formats.write_pfm(path, np.random.default_rng(0).random((4, 5)) + 1.0), formats.read_pfm),
    "read_manifest": (_write_manifest, formats.read_manifest),
    "load_checkpoint": (lambda path: save_checkpoint(path, _ARRAYS, _CONFIG), load_checkpoint),
}


@pytest.mark.parametrize("reader", list(_READERS))
def test_mutated_file_loads_or_raises_data_error_naming_the_path(tmp_path, reader):
    # 600 seeded mutations of a valid file, in turn a truncation, 1-4 bytes
    # overwritten and 1-4 bytes inserted: each loads, or raises DataError
    # naming the file, with no warning
    write, read = _READERS[reader]
    valid, path = tmp_path / "valid", tmp_path / "mutant"
    write(valid)
    raw = valid.read_bytes()
    rng = np.random.default_rng(zlib.crc32(reader.encode()))
    for i in range(600):
        data = bytearray(raw)
        at, noise = int(rng.integers(0, len(raw))), rng.integers(0, 256, size=int(rng.integers(1, 5)), dtype=np.uint8)
        if i % 3 == 0:
            del data[at:]
        elif i % 3 == 1:
            for byte in noise:
                data[int(rng.integers(0, len(raw)))] = byte
        else:
            data[at:at] = noise.tobytes()
        path.write_bytes(data)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                read(path)
        except DataError as e:
            assert str(path) in str(e), f"mutation {i} ({bytes(data)!r}): {e}"
        except Exception as e:
            pytest.fail(f"mutation {i} ({bytes(data)!r}) raised {e!r}")

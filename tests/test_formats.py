import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from dvokit import formats
from dvokit.formats import DataError
from dvokit.geometry import Pose, pose_from_twist
from dvokit.synth import MotionSpec, default_intrinsics, generate_trajectory, preset_scene


def test_ppm_roundtrip_within_quantization(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.random((3, 5, 7))
    path = tmp_path / "img.ppm"
    formats.write_ppm(path, img)
    back = formats.read_ppm(path)
    assert back.shape == img.shape
    assert np.abs(back - img).max() <= 0.5 / 255.0 + 1e-12


def test_ppm_header_validation(tmp_path):
    bad = tmp_path / "bad.ppm"
    bad.write_bytes(b"P5\n3 3\n255\n" + b"\x00" * 27)
    with pytest.raises(DataError):
        formats.read_ppm(bad)
    truncated = tmp_path / "trunc.ppm"
    truncated.write_bytes(b"P6\n4 4\n255\n" + b"\x00" * 10)
    with pytest.raises(DataError):
        formats.read_ppm(truncated)


def test_pfm_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(1)
    depth = rng.random((6, 4)).astype(np.float32).astype(np.float64)
    path = tmp_path / "d.pfm"
    formats.write_pfm(path, depth)
    back = formats.read_pfm(path)
    assert np.array_equal(back.astype(np.float32), depth.astype(np.float32))
    # float32 storage is exact for float32-representable values
    assert np.array_equal(back, depth)


def test_pfm_header_validation(tmp_path):
    bad = tmp_path / "bad.pfm"
    bad.write_bytes(b"PF\n2 2\n-1.0\n" + b"\x00" * 16)
    with pytest.raises(DataError):
        formats.read_pfm(bad)
    bigendian = tmp_path / "be.pfm"
    bigendian.write_bytes(b"Pf\n2 2\n1.0\n" + b"\x00" * 16)
    with pytest.raises(DataError):
        formats.read_pfm(bigendian)


def test_tum_identity_line_and_roundtrip(tmp_path):
    path = tmp_path / "traj.tum"
    formats.write_tum(path, [Pose.identity()])
    line = path.read_text().strip()
    assert line.split() == ["0.000000", "0", "0", "0", "0", "0", "0", "1"]

    rng = np.random.default_rng(2)
    poses = [pose_from_twist(rng.normal(scale=0.5, size=6)) for _ in range(5)]
    formats.write_tum(path, poses)
    rows = np.loadtxt(path, ndmin=2)  # t tx ty tz qx qy qz qw
    assert rows.shape == (5, 8)
    assert rows[:, 0].tolist() == [float(i) for i in range(5)]
    for p, row in zip(poses, rows):
        back = np.eye(4)
        back[:3, :3] = Rotation.from_quat(row[4:]).as_matrix()  # scipy's quaternions are w-last too
        back[:3, 3] = row[1:4]
        assert np.abs(p.matrix() - back).max() < 1e-12


def test_dataset_save_load_roundtrip(tmp_path):
    k = default_intrinsics(16)
    scene = preset_scene("dynamic-room", seed=5)
    frames = generate_trajectory(scene, k, 3, MotionSpec(kind="line", step=(0.01, 0.0, 0.05)),
                                 np.random.default_rng(3))
    manifest = formats.save_dataset(tmp_path, frames, k, seed=5, scene_name="dynamic-room")
    assert len(manifest["frames"]) == 3
    assert len(manifest["pairs"]) == 2
    assert any("dynamic_mask" in f for f in manifest["frames"])

    pairs, manifest2 = formats.load_pairs(tmp_path)
    assert manifest2 == manifest
    assert len(pairs) == 2
    # depth roundtrips at float32 precision; poses exactly up to quaternion codec
    stored = pairs[0].gt_depth_a.values
    assert np.array_equal(stored, frames[0].depth.astype(np.float32).astype(np.float64))
    gt = frames[1].cam_to_world.invert().compose(frames[0].cam_to_world)
    assert np.abs(pairs[0].gt_pose.matrix() - gt.matrix()).max() < 1e-12


def test_manifest_validation(tmp_path):
    bad = tmp_path / "manifest.json"
    bad.write_text("{}")
    with pytest.raises(DataError):
        formats.read_manifest(bad)

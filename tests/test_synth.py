import numpy as np
import pytest

from dvokit.autodiff import Tensor
from dvokit.geometry import CameraIntrinsics, Pose, warp_depth, bilinear_sample
from dvokit.synth import (
    MIN_OVERLAP,
    Box,
    MotionSpec,
    Scene,
    covisible_fraction,
    default_intrinsics,
    generate_trajectory,
    make_pair,
    preset_scene,
    relative_pose,
    render,
    render_at,
    render_pair,
)


def _wall_scene(z=5.0, seed=3):
    # lateral walls far outside the frustum: every ray hits the back wall
    return Scene(room=Box((-100.0, -100.0, -1.0), (100.0, 100.0, z)), texture_seed=seed)


def test_fronto_parallel_wall_constant_depth():
    k = CameraIntrinsics(fx=45.0, fy=45.0, cx=15.5, cy=15.5, width=32, height=32)
    _, depth, _ = render(_wall_scene(5.0), 0, Pose.identity(), k)
    assert np.allclose(depth, 5.0, atol=1e-12)


def test_lateral_translation_shifts_image_by_parallax():
    # shift = fx * 0.1 / depth = 50 * 0.1 / 5 = 1 px exactly
    k = CameraIntrinsics(fx=50.0, fy=50.0, cx=15.5, cy=15.5, width=32, height=32)
    scene = _wall_scene(5.0)
    img_a, _, _ = render(scene, 0, Pose.identity(), k)
    img_b, _, _ = render(scene, 0, Pose(np.eye(3), [0.1, 0.0, 0.0]), k)
    assert np.abs(img_b[:, :, :-1] - img_a[:, :, 1:]).max() < 1e-12


def test_render_deterministic_given_seed():
    k = default_intrinsics(24)
    scene = preset_scene("cluttered-room", seed=7)
    a1 = render(scene, 0, Pose.identity(), k)
    a2 = render(preset_scene("cluttered-room", seed=7), 0, Pose.identity(), k)
    assert np.array_equal(a1[0], a2[0]) and np.array_equal(a1[1], a2[1])
    b = render(preset_scene("cluttered-room", seed=8), 0, Pose.identity(), k)
    assert not np.array_equal(a1[0], b[0])


def test_depths_inside_working_range():
    k = default_intrinsics(32)
    rng = np.random.default_rng(4)
    for name in ("room", "cluttered-room", "dynamic-room"):
        frames = generate_trajectory(preset_scene(name, 1), k, 4, MotionSpec(), rng)
        for fr in frames:
            assert fr.depth.min() > 0.1 and fr.depth.max() < 10.0


def test_static_trajectory_identity_relatives():
    k = default_intrinsics(16)
    frames = generate_trajectory(
        preset_scene("room", 0), k, 3, MotionSpec(kind="static"), np.random.default_rng(0)
    )
    for i in range(2):
        rel = relative_pose(frames[i], frames[i + 1])
        assert np.abs(rel.rotation - np.eye(3)).max() < 1e-12
        assert np.abs(rel.translation).max() < 1e-12


def test_line_trajectory_constant_relatives():
    k = default_intrinsics(16)
    frames = generate_trajectory(
        preset_scene("room", 0), k, 5, MotionSpec(kind="line", step=(0.0, 0.0, 0.1)),
        np.random.default_rng(0),
    )
    rels = [relative_pose(frames[i], frames[i + 1]) for i in range(4)]
    for rel in rels:
        assert np.abs(rel.matrix() - rels[0].matrix()).max() < 1e-12
    assert np.allclose(rels[0].translation, [0.0, 0.0, -0.1])


def test_random_walk_satisfies_covisibility_bound():
    k = default_intrinsics(24)
    spec = MotionSpec(kind="random-walk")
    frames = generate_trajectory(preset_scene("room", 2), k, 50, spec, np.random.default_rng(5))
    assert len(frames) == 50
    for i in range(49):
        rel = relative_pose(frames[i], frames[i + 1])
        frac = covisible_fraction(frames[i].depth, frames[i + 1].depth, rel, k)
        assert frac >= MIN_OVERLAP


def test_pair_warp_rerender_is_exact_on_static_covisible_pixels():
    # continuous re-render at the warped coordinates reproduces frame a
    k = default_intrinsics(32)
    scene = preset_scene("cluttered-room", seed=11)
    pose_a = Pose.identity()
    pose_b = Pose(np.eye(3), [0.07, -0.03, 0.05])
    pair = render_pair(scene, k, pose_a, pose_b)

    res = warp_depth(pair.gt_depth_a.values, pair.gt_pose, k)
    d_hat, flow, valid = res.depth.data, res.flow.data, res.valid
    colors_b, depth_b_at = render_at(scene, 1, pose_b, k, flow)
    covis = valid & (np.abs(d_hat - depth_b_at) < 1e-6 * np.maximum(d_hat, 1.0))
    assert covis.sum() > 0.5 * valid.size
    err = np.abs(colors_b - pair.image_a)[:, covis]
    assert err.max() < 1e-3  # exact up to raycast round-off in practice
    assert err.max() < 1e-9


def test_bilinear_reconstruction_close_on_static_covisible_pixels():
    k = default_intrinsics(32)
    scene = preset_scene("room", seed=13)
    pair = render_pair(scene, k, Pose.identity(), Pose(np.eye(3), [0.06, 0.02, 0.04]))
    res = warp_depth(Tensor(pair.gt_depth_a.values), pair.gt_pose, k)
    synth = bilinear_sample(Tensor(pair.image_b), res.flow).data
    err = np.abs(synth - pair.image_a)[:, res.valid]
    assert err.mean() < 1e-2


def test_moving_object_violates_static_reconstruction():
    k = default_intrinsics(32)
    scene = preset_scene("dynamic-room", seed=9)
    frames = generate_trajectory(scene, k, 2, MotionSpec(kind="line", step=(0.02, 0.0, 0.03)),
                                 np.random.default_rng(1))
    pair = make_pair(frames, 0, k)
    assert pair.dynamic_mask_a is not None and pair.dynamic_mask_a.any()

    res = warp_depth(Tensor(pair.gt_depth_a.values), pair.gt_pose, k)
    synth = bilinear_sample(Tensor(pair.image_b), res.flow).data
    err = np.abs(synth - pair.image_a).mean(axis=0)
    inside = res.valid & pair.dynamic_mask_a
    outside = res.valid & ~pair.dynamic_mask_a
    assert err[inside].mean() > 3.0 * err[outside].mean()


def test_covisibility_counts_occlusions():
    k = default_intrinsics(32)
    scene = preset_scene("room", 0)
    img, depth, _ = render(scene, 0, Pose.identity(), k)
    frac = covisible_fraction(depth, depth, Pose.identity(), k)
    assert frac > 0.8


def test_unknown_presets_raise():
    with pytest.raises(ValueError):
        preset_scene("nope")
    with pytest.raises(ValueError):
        generate_trajectory(
            preset_scene("room", 0), default_intrinsics(16), 3,
            MotionSpec(kind="teleport"), np.random.default_rng(0),
        )

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from dvokit.autodiff import Tensor, grads
from dvokit.geometry import (
    CameraIntrinsics,
    DepthMap,
    Pose,
    bilinear_sample,
    pose_distance,
    pose_from_twist,
    quaternion_from_rotation,
    rotation_from_axis_angle,
    warp_depth,
)

import oracles
from oracles import finite_diff_check


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        CameraIntrinsics(fx=-1.0, fy=1.0, cx=0, cy=0, width=4, height=4)
    with pytest.raises(ValueError):
        CameraIntrinsics(fx=1.0, fy=1.0, cx=0, cy=0, width=1, height=4)
    for bad in ({"fx": np.nan}, {"fy": np.inf}, {"cx": np.inf}, {"cy": np.nan}):
        with pytest.raises(ValueError, match="finite"):
            CameraIntrinsics(**{"fx": 1.0, "fy": 1.0, "cx": 0.0, "cy": 0.0, "width": 4, "height": 4, **bad})
    for bad in ({"width": 32.5}, {"height": 4.0}, {"width": True}, {"height": "4"}):
        with pytest.raises(ValueError, match="integers"):
            CameraIntrinsics(**{"fx": 1.0, "fy": 1.0, "cx": 0.0, "cy": 0.0, "width": 4, "height": 4, **bad})
    assert CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=np.int64(4), height=4).width == 4


def test_pose_and_depth_map_refuse_non_finite_values():
    # NaN fails every comparison, so an error bound alone lets it through
    nan_rotation = np.eye(3)
    nan_rotation[0, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        Pose(nan_rotation, np.zeros(3))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            Pose(np.eye(3), [0.0, bad, 0.0])
        with pytest.raises(ValueError, match="finite and positive"):
            DepthMap(np.where(np.eye(3, dtype=bool), bad, 1.0))
    with pytest.raises(ValueError, match="finite and positive"):
        DepthMap(np.zeros((2, 2)))


def test_se3_exp_zero_twist_is_identity():
    p = pose_from_twist(np.zeros(6))
    assert np.allclose(p.rotation, np.eye(3))
    assert np.allclose(p.translation, 0.0)


def test_se3_exp_known_quarter_turn():
    p = pose_from_twist([0, 0, 0, 0, 0, np.pi / 2])
    assert np.allclose(p.rotation @ [1.0, 0.0, 0.0] + p.translation, [0.0, 1.0, 0.0], atol=1e-12)


def test_se3_log_roundtrip_random_twists():
    rng = np.random.default_rng(11)
    for _ in range(50):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(0.0, np.pi - 1e-3)
        twist = np.concatenate([rng.normal(size=3), axis * angle])
        back = pose_from_twist(twist).twist()
        assert np.abs(back - twist).max() < 1e-9


def test_pose_invariants_after_exp():
    rng = np.random.default_rng(12)
    for _ in range(20):
        p = pose_from_twist(rng.normal(scale=0.8, size=6))
        assert np.abs(p.rotation.T @ p.rotation - np.eye(3)).max() < 1e-9
        assert abs(np.linalg.det(p.rotation) - 1.0) < 1e-9


def test_compose_invert_identity_and_associativity():
    rng = np.random.default_rng(13)
    p = pose_from_twist(rng.normal(size=6))
    pi = p.compose(p.invert())
    assert np.abs(pi.rotation - np.eye(3)).max() < 1e-12
    assert np.abs(pi.translation).max() < 1e-12

    q = Pose.identity().compose(p)
    assert np.array_equal(q.rotation, p.rotation)
    assert np.array_equal(q.translation, p.translation)

    a, b, c = (pose_from_twist(rng.normal(size=6)) for _ in range(3))
    left = a.compose(b).compose(c)
    right = a.compose(b.compose(c))
    assert np.abs(left.matrix() - right.matrix()).max() < 1e-10


def _small_k(n=16, fx=None):
    fx = fx or 0.9 * n
    c = (n - 1) / 2.0
    return CameraIntrinsics(fx=fx, fy=fx, cx=c, cy=c, width=n, height=n)


def test_warp_identity_pose_reproduces_grid():
    k = _small_k(8)
    depth = np.full((8, 8), 3.0)
    res = warp_depth(depth, Pose.identity(), k)
    d_hat, flow, valid = res.depth.data, res.flow.data, res.valid
    u = np.arange(8.0)
    assert np.allclose(flow[..., 0], np.tile(u, (8, 1)), atol=1e-12)
    assert np.allclose(flow[..., 1], np.tile(u[:, None], (1, 8)), atol=1e-12)
    assert np.allclose(d_hat, depth)
    assert valid.all()


def test_warp_identity_pose_keeps_every_pixel_despite_round_off(static_pair_16):
    # rendered depth reprojects onto the border up to round-off (about
    # 1e-15 px outside the image here), which must not decide validity
    for depth in (static_pair_16.gt_depth_a.values, static_pair_16.gt_depth_b.values):
        assert warp_depth(depth, Pose.identity(), static_pair_16.intrinsics).valid.all()


def test_warp_forward_translation_toward_plane():
    # camera advances 0.1 m toward a fronto-parallel plane at 5 m;
    # the relative "a to b" transform is then a -0.1 z-translation
    k = _small_k(16)
    depth = np.full((16, 16), 5.0)
    pose = Pose(np.eye(3), [0.0, 0.0, -0.1])
    res = warp_depth(depth, pose, k)
    assert res.valid.sum() > 0
    assert np.allclose(res.depth.data[res.valid], 4.9, atol=1e-12)


def test_warp_large_lateral_translation_shrinks_valid_set():
    k = _small_k(16)
    depth = np.full((16, 16), 2.0)
    valid_small = warp_depth(depth, Pose(np.eye(3), [0.5, 0.0, 0.0]), k).valid
    valid_id = warp_depth(depth, Pose.identity(), k).valid
    assert valid_small.sum() < valid_id.sum()
    assert valid_small.sum() > 0


def test_valid_set_monotone_under_image_shrink():
    rng = np.random.default_rng(14)
    k_big = _small_k(20)
    k_small = CameraIntrinsics(fx=k_big.fx, fy=k_big.fy, cx=k_big.cx, cy=k_big.cy, width=16, height=16)
    depth = 2.0 + rng.random((20, 20))
    pose = pose_from_twist([0.05, -0.02, 0.04, 0.01, -0.02, 0.015])
    valid_big = warp_depth(depth, pose, k_big).valid
    valid_small = warp_depth(depth[:16, :16], pose, k_small).valid
    # shrinking the target image never adds valid pixels
    assert not np.any(valid_small & ~valid_big[:16, :16])


def test_bilinear_integer_coords_exact_and_center_average():
    img = Tensor(np.array([[[0.0, 2.0], [4.0, 6.0]]]))
    coords = Tensor(np.array([[[0.0, 0.0], [1.0, 1.0]]]))  # (1, 2, 2)
    out = bilinear_sample(img, coords)
    assert out.data[0, 0, 0] == 0.0 and out.data[0, 0, 1] == 6.0
    mid = bilinear_sample(img, Tensor(np.array([[[0.5, 0.5]]])))
    assert mid.data[0, 0, 0] == 3.0


def test_bilinear_linear_ramp_is_exact():
    h, w = 6, 7
    xs = np.arange(w, dtype=np.float64)
    ys = np.arange(h, dtype=np.float64)
    ramp = 0.3 * xs[None, :] + 0.7 * ys[:, None] + 1.0
    img = Tensor(ramp[None])
    rng = np.random.default_rng(15)
    cx = rng.uniform(0, w - 1, size=(4, 4))
    cy = rng.uniform(0, h - 1, size=(4, 4))
    coords = Tensor(np.stack([cx, cy], axis=-1))
    out = bilinear_sample(img, coords).data[0]
    assert np.abs(out - (0.3 * cx + 0.7 * cy + 1.0)).max() < 1e-12


def test_bilinear_gradient_wrt_coords_and_image():
    rng = np.random.default_rng(16)
    img = rng.random((2, 9, 9))
    # keep coords away from integer grid lines where the sampler has kinks
    base = rng.uniform(0.3, 7.7, size=(5, 5, 2))
    base = np.where(np.abs(base - np.round(base)) < 0.2, base + 0.25, base)

    def f_coords(c):
        return (bilinear_sample(Tensor(img), c) ** 2.0).sum()

    assert finite_diff_check(f_coords, base, h=1e-6) < 1e-5

    def f_img(t):
        return (bilinear_sample(t, Tensor(base)) ** 2.0).sum()

    assert finite_diff_check(f_img, img, h=1e-6) < 1e-5


def test_bilinear_gradient_is_unmoved_by_round_off_at_integers_and_borders():
    img = np.random.default_rng(18).random((2, 5, 6))
    exact = np.array([[0.0, 0.0], [5.0, 4.0], [2.0, 3.0], [0.0, 4.0], [5.0, 1.0]])
    below = exact - 1e-12  # on the left and top borders: within 1e-9 outside

    def run(coords):
        leaves = [Tensor(img, requires_grad=True), Tensor(coords, requires_grad=True)]
        out = bilinear_sample(*leaves)
        return [out.data] + grads((out * Tensor(np.arange(out.size).reshape(out.shape))).sum(), leaves)

    for moved, fixed in zip(run(below), run(exact)):
        assert np.abs(moved - fixed).max() <= 1e-10 * np.abs(fixed).max()
    # farther outside than the tolerance, the clamped coordinate gets no gradient
    assert not run(np.array([[-1e-6, 2.0], [2.0, 4.0 + 1e-6]]))[2][[0, 1], [0, 1]].any()


@pytest.mark.parametrize("axis", [0, 1, 2], ids=["x", "y", "z"])
def test_quaternion_from_rotation_matches_scipy_for_each_diagonal_maximum(axis):
    # about 170 deg about a slightly tilted axis: a negative trace, and the
    # largest diagonal entry is that of the axis
    tilt = np.random.default_rng(axis).normal(scale=0.1, size=3)
    rotvec = np.radians(170.0) * (np.eye(3)[axis] + tilt) / np.linalg.norm(np.eye(3)[axis] + tilt)
    r = Rotation.from_rotvec(rotvec).as_matrix()
    assert np.trace(r) < 0 and np.argmax(np.diag(r)) == axis
    q, expected = quaternion_from_rotation(r), Rotation.from_matrix(r).as_quat()
    assert min(np.abs(q - expected).max(), np.abs(q + expected).max()) < 1e-12


def test_rotation_from_axis_angle_matches_scipy_and_fd():
    rng = np.random.default_rng(17)
    for scale in (1e-9, 0.3, 1.5):  # the Taylor branch, then the closed form
        w = rng.normal(scale=scale, size=3)
        r_t = rotation_from_axis_angle(Tensor(w))
        assert np.abs(r_t.data - Rotation.from_rotvec(w).as_matrix()).max() < 1e-12

    def f(t):
        return (rotation_from_axis_angle(t) * Tensor(np.arange(9.0).reshape(3, 3))).sum()

    assert finite_diff_check(f, rng.normal(scale=0.5, size=3), h=1e-6) < 1e-6
    assert finite_diff_check(f, np.zeros(3), h=1e-6) < 1e-6


def test_rotation_from_axis_angle_is_the_composite_bit_for_bit():
    # the one-node op against the composite of primitive nodes it replaced:
    # 1,200 seeded twists of 1e-9 to 3 rad, 400 within 1e-12 relative of the
    # branch threshold |r|^2 = 1e-12, and signed zeros; bytes compare signs too
    rng = np.random.default_rng(19)
    axes = rng.normal(size=(1600, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    norms = np.concatenate([10 ** rng.uniform(-9, 0.5, 1200), 1e-6 * (1 + rng.uniform(-1e-12, 1e-12, 400))])
    twists = [*(axes * norms[:, None]), np.zeros(3), -np.zeros(3), np.array([0.0, -0.0, 0.0])]
    below = sum(float((r * r).sum()) < 1e-12 for r in twists[1200:1600])
    assert 50 < below < 350  # the threshold twists fall on both branches
    for r in twists:
        weights = Tensor(rng.normal(size=(3, 3)))
        results = []
        for op in (rotation_from_axis_angle, oracles.rotation_from_axis_angle_composite):
            leaf = Tensor(r.copy(), requires_grad=True)
            rotation = op(leaf)
            results.append((rotation.data, grads((rotation * weights).sum(), [leaf])[0]))
        (new, g_new), (old, g_old) = results
        assert new.tobytes() == old.tobytes() and g_new.tobytes() == g_old.tobytes(), r


def test_warp_gradients_wrt_depth_and_twist():
    rng = np.random.default_rng(18)
    k = _small_k(8)
    depth0 = 2.0 + rng.random((8, 8))
    twist0 = np.array([0.04, -0.03, 0.05, 0.02, -0.01, 0.03])

    res0 = warp_depth(Tensor(depth0), Tensor(twist0), k)
    weights_d = rng.random((8, 8)) * res0.valid
    weights_f = rng.random((8, 8, 2)) * res0.valid[..., None]

    def f_depth(d):
        res = warp_depth(d, Tensor(twist0), k)
        return (res.depth * Tensor(weights_d)).sum() + (res.flow * Tensor(weights_f)).sum()

    assert finite_diff_check(f_depth, depth0, h=1e-6) < 1e-5

    def f_twist(t):
        res = warp_depth(Tensor(depth0), t, k)
        return (res.depth * Tensor(weights_d)).sum() + (res.flow * Tensor(weights_f)).sum()

    assert finite_diff_check(f_twist, twist0, h=1e-6) < 1e-5


def test_pose_distance():
    p = pose_from_twist([0.3, 0, 0, 0, 0, np.radians(10.0)])
    rot, trans = pose_distance(p, Pose.identity())
    assert abs(rot - 10.0) < 1e-9
    assert abs(trans - 0.3) < 1e-12


def test_pose_tensors_matches_pose():
    twist = np.array([0.1, -0.2, 0.3, 0.05, 0.02, -0.04])
    r_t, t_t = oracles.pose_tensors(Tensor(twist))
    p = pose_from_twist(twist)
    assert np.abs(r_t.data - p.rotation).max() < 1e-12
    assert np.array_equal(t_t.data, p.translation)

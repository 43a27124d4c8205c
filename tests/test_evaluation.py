import json

import numpy as np
import pytest

from dvokit.evaluation import (
    DepthEvalConfig,
    EvalReport,
    accumulate_trajectory,
    depth_metrics,
    mean_reports,
    median_scale,
    trajectory_errors,
)
from dvokit.geometry import Pose, pose_from_twist

from oracles import depth_metrics_reference


def test_config_validation():
    with pytest.raises(ValueError):
        DepthEvalConfig(cap=1.0, min_valid=2.0)


def test_median_scale_cases():
    gt = np.array([[2.0, 4.0, 6.0]])
    valid = np.ones_like(gt, dtype=bool)
    scaled, s = median_scale(2.0 * gt, gt, valid)
    assert s == 0.5 and np.array_equal(scaled, gt)

    _, s = median_scale(np.array([[1.0, 2.0, 3.0]]), np.array([[2.0, 4.0, 6.0]]), valid)
    assert s == 2.0

    _, s = median_scale(gt, gt, valid)
    assert s == 1.0

    with pytest.raises(ValueError):
        median_scale(gt, gt, np.zeros_like(gt, dtype=bool))
    with pytest.raises(ValueError):
        median_scale(np.zeros_like(gt), gt, valid)


def test_depth_metrics_perfect_prediction():
    gt = np.random.default_rng(0).uniform(0.5, 8.0, (6, 6))
    rep = depth_metrics(gt.copy(), gt)
    assert rep.abs_rel == 0.0 and rep.rmse == 0.0
    assert rep.delta1 == rep.delta2 == rep.delta3 == 1.0
    assert rep.scale_s == 1.0


def test_depth_metrics_hand_case():
    gt = np.array([[2.0, 4.0]])
    pred = np.array([[1.0, 5.0]])
    rep = depth_metrics(pred, gt, DepthEvalConfig(cap=80.0, median_scaling=False))
    assert rep.abs_rel == (0.5 + 0.25) / 2 == 0.375
    assert rep.rmse == 1.0
    ref = depth_metrics_reference(pred.ravel(), gt.ravel())
    assert rep.abs_rel == ref[0] and rep.rmse == pytest.approx(ref[1], abs=1e-15)


def test_delta_threshold_arithmetic():
    gt = np.array([[2.0]])
    inside = depth_metrics(np.array([[2.4]]), gt, DepthEvalConfig(cap=80, median_scaling=False))
    assert inside.delta1 == 1.0  # ratio 1.2 < 1.25
    outside = depth_metrics(np.array([[2.6]]), gt, DepthEvalConfig(cap=80, median_scaling=False))
    assert outside.delta1 == 0.0  # ratio 1.3
    assert outside.delta2 == 1.0


def test_median_scaling_invariance_to_global_pred_scale():
    rng = np.random.default_rng(1)
    gt = rng.uniform(0.5, 9.0, (12, 12))
    pred = gt * np.exp(rng.normal(scale=0.2, size=gt.shape))
    base = depth_metrics(pred, gt)
    for factor in (0.05, 3.0, 117.0):
        rep = depth_metrics(pred * factor, gt)
        assert abs(rep.abs_rel - base.abs_rel) < 1e-12
        assert abs(rep.rmse - base.rmse) < 1e-12
        assert rep.delta1 == base.delta1 and rep.delta3 == base.delta3


def test_delta_monotonicity_random_instances():
    rng = np.random.default_rng(2)
    for _ in range(200):
        gt = rng.uniform(0.2, 9.5, 40)
        pred = gt * np.exp(rng.normal(scale=rng.uniform(0.05, 0.6), size=40))
        rep = depth_metrics(pred.reshape(5, 8), gt.reshape(5, 8))
        assert rep.delta1 <= rep.delta2 <= rep.delta3 <= 1.0


def test_cap_monotonicity():
    rng = np.random.default_rng(3)
    gt = rng.uniform(0.5, 50.0, (8, 8))
    pred = gt * 1.1
    small = depth_metrics(pred, gt, DepthEvalConfig(cap=10.0, median_scaling=False))
    large = depth_metrics(pred, gt, DepthEvalConfig(cap=60.0, median_scaling=False))
    assert large.n_pixels >= small.n_pixels


def test_depth_metrics_empty_valid_set():
    gt = np.full((3, 3), 100.0)
    with pytest.raises(ValueError):
        depth_metrics(gt, gt, DepthEvalConfig(cap=10.0))


def test_eval_report_json_roundtrip():
    rep = EvalReport(0.1, 0.5, 0.9, 0.95, 0.99, 1234, 1.5, trans_err_m=0.2, rot_err_deg=3.0)
    text = rep.to_json()
    assert EvalReport(**json.loads(text)) == rep
    for field in ("abs_rel", "rmse", "delta1", "delta2", "delta3", "n_pixels", "scale_s",
                  "trans_err_m", "rot_err_deg"):
        assert f'"{field}"' in text


def test_mean_reports():
    a = EvalReport(0.1, 1.0, 0.8, 0.9, 1.0, 10, 1.0)
    b = EvalReport(0.3, 2.0, 0.6, 0.7, 0.8, 30, 2.0)
    m = mean_reports([a, b])
    assert m.abs_rel == pytest.approx(0.2)
    assert m.n_pixels == 40


def test_accumulate_identity_and_forward_steps():
    ident = [Pose.identity()] * 4
    out = accumulate_trajectory(ident)
    for p in out:
        assert np.allclose(p.matrix(), np.eye(4))

    step = Pose(np.eye(3), [0.0, 0.0, 0.1])
    out = accumulate_trajectory([step] * 10)
    assert np.allclose(out[-1].translation, [0.0, 0.0, 1.0])


def test_accumulate_inverse_roundtrip():
    rng = np.random.default_rng(4)
    rels = [pose_from_twist(rng.normal(scale=0.2, size=6)) for _ in range(8)]
    forward = accumulate_trajectory(rels)
    back = accumulate_trajectory([p.invert() for p in reversed(rels)])
    final = forward[-1].compose(back[-1])
    assert np.abs(final.matrix() - np.eye(4)).max() < 1e-10


def _walk(rng, n=12):
    """Random walk in the y-up world: 3D steps, yaw about y."""
    rels = [pose_from_twist(np.concatenate([rng.normal(scale=0.2, size=3),
                                    [0.0, rng.normal(scale=0.1), 0.0]])) for _ in range(n - 1)]
    return accumulate_trajectory([Pose.identity()] + rels)


def test_trajectory_errors_identical_is_zero():
    gt = _walk(np.random.default_rng(5))
    trans, rot = trajectory_errors(gt, gt)
    assert trans == 0.0 and rot == 0.0


def test_trajectory_errors_alignment_removes_constant_shift():
    gt = _walk(np.random.default_rng(6))
    shifted = [Pose(p.rotation, p.translation + np.array([1.0, 0.0, 0.0])) for p in gt]
    trans, rot = trajectory_errors(shifted, gt)
    assert trans < 1e-12 and rot < 1e-12


def test_trajectory_errors_pure_yaw_offset():
    gt = _walk(np.random.default_rng(7))
    ry = pose_from_twist([0, 0, 0, 0, np.radians(10.0), 0]).rotation
    pred = [Pose(ry @ p.rotation, p.translation) for p in gt]
    trans, rot = trajectory_errors(pred, gt)
    assert trans < 1e-12
    assert rot == pytest.approx(10.0, abs=1e-9)


def test_trajectory_errors_invariant_to_planar_rigid_transform():
    rng = np.random.default_rng(8)
    gt = _walk(rng)
    pred = [Pose(p.rotation, p.translation + rng.normal(scale=0.05, size=3)) for p in gt]
    base = trajectory_errors(pred, gt)

    g = Pose(pose_from_twist([0, 0, 0, 0, 0.7, 0]).rotation, np.array([3.0, -2.0, 5.0]))
    pred_t = [g.compose(p) for p in pred]
    gt_t = [g.compose(p) for p in gt]
    moved = trajectory_errors(pred_t, gt_t)
    assert moved[0] == pytest.approx(base[0], abs=1e-9)
    assert moved[1] == pytest.approx(base[1], abs=1e-9)


def _synth_line(n=5, step=0.1):
    from dvokit.synth import MotionSpec, default_intrinsics, generate_trajectory, preset_scene

    frames = generate_trajectory(preset_scene("room"), default_intrinsics(16), n,
                                 MotionSpec(kind="line", step=(0.0, 0.0, step)),
                                 np.random.default_rng(0))
    return [f.cam_to_world for f in frames]


def test_trajectory_errors_score_forward_motion_in_the_y_up_world():
    gt = _synth_line()
    still = [Pose.identity()] * len(gt)
    trans, rot = trajectory_errors(still, gt)
    assert trans == pytest.approx(0.2, abs=1e-12)  # mean of 0, 0.1, ..., 0.4 m
    assert rot == 0.0


def test_trajectory_svg_draws_forward_motion(tmp_path):
    from dvokit.plots import trajectory_svg

    gt = _synth_line()
    out = tmp_path / "line.svg"
    trajectory_svg([Pose.identity()] * len(gt), gt, out)
    gt_points = out.read_text().split('<polyline points="')[1].split('"')[0].split()
    assert len(set(gt_points)) == len(gt)


def test_trajectory_errors_validation():
    gt = _walk(np.random.default_rng(9))
    with pytest.raises(ValueError):
        trajectory_errors(gt[:-1], gt)
    with pytest.raises(ValueError):
        trajectory_errors(gt[:1], gt[:1])


def test_trajectory_svg_two_polylines(tmp_path):
    from dvokit.plots import trajectory_svg

    gt = _walk(np.random.default_rng(10))
    pred = _walk(np.random.default_rng(11))
    out = tmp_path / "traj.svg"
    trajectory_svg(pred, gt, out)
    text = out.read_text()
    assert text.count("<polyline") == 2
    assert "<svg" in text

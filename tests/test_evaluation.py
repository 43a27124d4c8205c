import json
from dataclasses import replace

import numpy as np
import pytest

from dvokit import autodiff as ad
from dvokit import train
from dvokit.evaluation import (
    MIN_VALID_DEPTH,
    DepthEvalConfig,
    EvalReport,
    accumulate_trajectory,
    depth_metrics,
    mean_reports,
    median_scale,
    trajectory_errors,
)
from dvokit.geometry import Pose, pose_from_twist
from dvokit.model import DvoModel, toy_config
from dvokit.synth import MotionSpec, default_intrinsics, generate_trajectory, make_pair, preset_scene

from oracles import depth_metrics_reference


def _trajectory_pairs(size: int, n_pairs: int):
    """Consecutive pairs of one trajectory, sharing frame arrays as
    `make_pair` hands them out."""
    k = default_intrinsics(size)
    scene = preset_scene("dynamic-room", seed=0)
    frames = generate_trajectory(scene, k, n_pairs + 1, MotionSpec(), np.random.default_rng(size))
    return [make_pair(frames, i, k) for i in range(n_pairs)]


@pytest.mark.parametrize("head", ["linear", "dpt"])
def test_evaluate_depth_gives_each_pair_what_its_own_forward_gives(head, monkeypatch):
    size = 64
    pairs = _trajectory_pairs(size, train.EVAL_CHUNK_PIXELS // size**2 + 1)  # one pair past a chunk
    model = DvoModel(toy_config(head_kind=head), np.random.default_rng(3))
    seen = []

    def spy(pred, gt, cfg):
        seen.append((pred, depth_metrics(pred, gt, cfg)))
        return seen[-1][1]

    monkeypatch.setattr(train, "depth_metrics", spy)
    report = train.evaluate_depth(model, train.PairDataset(pairs))
    assert len(seen) == len(pairs)
    cfg = DepthEvalConfig(cap=model.cfg.max_depth)
    for pair, (depth, metrics) in zip(pairs, seen):
        with ad.no_grad():
            grids = model.encode(np.stack([pair.image_a, pair.image_b]))
            alone = model.depth(*(replace(grids, tokens=grids.tokens[j]) for j in (0, 1))).data
        assert np.array_equal(depth, alone)
        assert metrics == depth_metrics(alone, pair.gt_depth_a.values, cfg)
    assert report == mean_reports([metrics for _, metrics in seen])


def test_evaluate_depth_encodes_each_frame_of_a_chunk_once(monkeypatch):
    pairs = _trajectory_pairs(32, 3)
    assert len(pairs) * 32**2 <= train.EVAL_CHUNK_PIXELS
    model = DvoModel(toy_config(), np.random.default_rng(0))
    encoded, encode = [], DvoModel.encode

    def counting(self, image, keep=None):
        encoded.append(len(image))
        return encode(self, image, keep)

    monkeypatch.setattr(DvoModel, "encode", counting)
    train.evaluate_depth(model, train.PairDataset(pairs))
    assert encoded == [len(pairs) + 1]


def test_evaluate_depth_raises_what_a_checked_forward_raises(static_pair_32, with_nan_pixel, monkeypatch):
    model = DvoModel(toy_config(), np.random.default_rng(0))
    # the NaN pair sits in the middle of one chunk
    bad = train.PairDataset([static_pair_32, with_nan_pixel(static_pair_32), static_pair_32])
    assert len(bad) * 32**2 <= train.EVAL_CHUNK_PIXELS
    with pytest.raises(ad.NonFiniteError, match="op '") as replayed:
        train.evaluate_depth(model, bad)
    monkeypatch.setattr(ad, "replayed", lambda fn, tested: fn())  # every forward checked
    with pytest.raises(ad.NonFiniteError) as checked:
        train.evaluate_depth(model, bad)
    assert str(replayed.value) == str(checked.value)


def test_config_validation():
    with pytest.raises(ValueError):
        DepthEvalConfig(cap=1e-4)


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


def test_ground_truth_below_the_minimum_valid_depth_is_left_out():
    gt = np.array([[2.0, 4.0, 5e-4]])
    pred = np.array([[1.0, 5.0, 3.0]])
    rep = depth_metrics(pred, gt, DepthEvalConfig(cap=80.0, median_scaling=False))
    assert 5e-4 < MIN_VALID_DEPTH
    assert rep.n_pixels == 2
    assert rep.abs_rel == (0.5 + 0.25) / 2


def test_depth_metrics_empty_valid_set():
    gt = np.full((3, 3), 100.0)
    with pytest.raises(ValueError):
        depth_metrics(gt, gt, DepthEvalConfig(cap=10.0))


def test_eval_report_json_roundtrip():
    rep = EvalReport(0.1, 0.5, 0.9, 0.95, 0.99, 1234, 1.5, 0.3)
    text = rep.to_json()
    assert EvalReport(**json.loads(text)) == rep
    for field in ("abs_rel", "rmse", "delta1", "delta2", "delta3", "n_pixels", "scale_s", "abs_rel_constant"):
        assert f'"{field}"' in text


def test_mean_reports():
    a = EvalReport(0.1, 1.0, 0.8, 0.9, 1.0, 10, 1.0, 0.2)
    b = EvalReport(0.3, 2.0, 0.6, 0.7, 0.8, 30, 2.0, 0.4)
    m = mean_reports([a, b])
    assert m.abs_rel == pytest.approx(0.2)
    assert m.abs_rel_constant == pytest.approx(0.3)
    assert m.n_pixels == 40


def _gt_with_invalid_pixels():
    gt = np.random.default_rng(12).uniform(0.5, 8.0, (7, 9))
    gt[0, :3] = 50.0  # beyond the cap: left out of every figure
    return gt


@pytest.mark.parametrize("value", [0.3, 2.0, 9.5])
def test_a_constant_map_scores_abs_rel_constant_under_median_scaling(value):
    gt = _gt_with_invalid_pixels()
    rep = depth_metrics(np.full_like(gt, value), gt)
    assert abs(rep.abs_rel - rep.abs_rel_constant) <= 1e-12
    assert rep.abs_rel_constant > 0.0


def test_a_perfect_prediction_beats_the_constant_baseline():
    gt = _gt_with_invalid_pixels()
    rep = depth_metrics(gt.copy(), gt)
    assert rep.abs_rel == 0.0 < rep.abs_rel_constant
    valid = gt <= 10.0
    g = gt[valid]
    assert rep.abs_rel_constant == pytest.approx(np.mean(np.abs(np.median(g) - g) / g), rel=1e-15)


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

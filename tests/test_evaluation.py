import json
import tracemalloc
from dataclasses import astuple, replace

import numpy as np
import pytest

from dvokit import autodiff as ad
from dvokit import train
from dvokit.evaluation import (
    MIN_VALID_DEPTH,
    DepthEvalConfig,
    EvalReport,
    depth_metrics,
    mean_reports,
)
from dvokit.model import DvoModel, toy_config
from dvokit.synth import MotionSpec, default_intrinsics, generate_trajectory, make_pair, preset_scene

import oracles
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


def test_evaluate_depth_of_dpt_pairs_peaks_at_most_27_mb():
    # a chunk of four 64 px pairs and one more pair peak at 12.1 MB in
    # float32 (24.2 MB in float64): with no graph the head's last node keeps
    # no phase's arrays (41.0 MB in float64 when the head's conv wrote its
    # 128-channel map at full resolution for a gelu_linear node)
    pairs = train.PairDataset(_trajectory_pairs(64, train.EVAL_CHUNK_PIXELS // 64**2 + 1))
    model = DvoModel(toy_config(head_kind="dpt"), np.random.default_rng(0))
    train.evaluate_depth(model, pairs)  # cached embeddings
    tracemalloc.start()
    try:
        train.evaluate_depth(model, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 13.3e6


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


@pytest.mark.parametrize("median_scaling", [True, False], ids=["median-scaled", "unscaled"])
def test_depth_metrics_equal_the_previous_implementation_bit_for_bit(median_scaling):
    rng = np.random.default_rng(8)
    cfg = DepthEvalConfig(median_scaling=median_scaling)
    for _ in range(5):
        gt = rng.uniform(0.5, 12.0, size=(32, 32))  # some beyond the cap
        gt[:2] = 0.0  # and some missing
        pred = 1.7 * gt * np.exp(rng.normal(scale=0.3, size=gt.shape))
        got = astuple(depth_metrics(pred, gt, cfg))
        want = oracles.depth_metrics_previous(pred, gt, cfg.cap, median_scaling)
        assert [float(v).hex() for v in got] == [float(v).hex() for v in want]


def test_median_scale_cases():
    gt = np.array([[2.0, 4.0, 6.0]])
    rep = depth_metrics(2.0 * gt, gt)
    assert rep.scale_s == 0.5 and rep.abs_rel == 0.0 and rep.rmse == 0.0  # the scaled map is gt

    assert depth_metrics(np.array([[1.0, 2.0, 3.0]]), np.array([[2.0, 4.0, 6.0]])).scale_s == 2.0

    assert depth_metrics(gt, gt).scale_s == 1.0

    with pytest.raises(ValueError, match="empty valid set"):
        depth_metrics(gt, np.zeros_like(gt))
    with pytest.raises(ValueError, match="zero median"):
        depth_metrics(np.zeros_like(gt), gt)


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


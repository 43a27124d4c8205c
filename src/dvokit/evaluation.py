"""Depth metrics (median-scaled, capped) and ground-plane trajectory errors."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .geometry import Pose


@dataclass(frozen=True)
class DepthEvalConfig:
    """Valid range and scaling policy for depth evaluation."""

    cap: float = 10.0
    min_valid: float = 1e-3
    median_scaling: bool = True

    def __post_init__(self):
        if not 0 < self.min_valid < self.cap:
            raise ValueError("need 0 < min_valid < cap")


@dataclass
class EvalReport:
    abs_rel: float
    rmse: float
    delta1: float
    delta2: float
    delta3: float
    n_pixels: int
    scale_s: float
    trans_err_m: float | None = None
    rot_err_deg: float | None = None

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, sort_keys=True)


def median_scale(pred, gt, valid: np.ndarray):
    """Rescale predicted depth by s = median(gt) / median(pred) over `valid`."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    valid = np.asarray(valid, dtype=bool)
    if not valid.any():
        raise ValueError("empty valid set")
    med_pred = float(np.median(pred[valid]))
    if med_pred == 0.0:
        raise ValueError("zero median in prediction")
    s = float(np.median(gt[valid])) / med_pred
    return pred * s, s


def depth_metrics(pred, gt, cfg: DepthEvalConfig = DepthEvalConfig()) -> EvalReport:
    """AbsRel, RMSE and threshold accuracies over gt pixels in [min_valid, cap]."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValueError("prediction/ground-truth shape mismatch")
    valid = (gt >= cfg.min_valid) & (gt <= cfg.cap)
    if not valid.any():
        raise ValueError("empty valid set")
    s = 1.0
    if cfg.median_scaling:
        pred, s = median_scale(pred, gt, valid)
    p, g = pred[valid], gt[valid]
    abs_rel = float(np.mean(np.abs(p - g) / g))
    rmse = float(np.sqrt(np.mean((p - g) ** 2)))
    ratio = np.maximum(p / g, g / p)
    d1, d2, d3 = (float(np.mean(ratio < 1.25**i)) for i in (1, 2, 3))
    return EvalReport(
        abs_rel=abs_rel,
        rmse=rmse,
        delta1=d1,
        delta2=d2,
        delta3=d3,
        n_pixels=int(valid.sum()),
        scale_s=s,
    )


def mean_reports(reports: list[EvalReport]) -> EvalReport:
    """Per-image metrics averaged over a test set (pixel counts summed)."""
    if not reports:
        raise ValueError("no reports to average")
    n = len(reports)
    return EvalReport(
        abs_rel=sum(r.abs_rel for r in reports) / n,
        rmse=sum(r.rmse for r in reports) / n,
        delta1=sum(r.delta1 for r in reports) / n,
        delta2=sum(r.delta2 for r in reports) / n,
        delta3=sum(r.delta3 for r in reports) / n,
        n_pixels=sum(r.n_pixels for r in reports),
        scale_s=sum(r.scale_s for r in reports) / n,
    )


def accumulate_trajectory(relatives: list[Pose]) -> list[Pose]:
    """Absolute poses from per-step motion increments, starting at identity.

    Each element is the pose increment of the camera between consecutive
    frames (the inverse of the frame-to-frame warp transform): P_k = P_{k-1} o T_k.
    """
    poses = []
    current = Pose.identity()
    for rel in relatives:
        current = current.compose(rel)
        poses.append(current)
    return poses


def _yaw_deg(rotation: np.ndarray) -> float:
    """Heading about the world's up axis, y."""
    return float(np.degrees(np.arctan2(rotation[0, 2], rotation[2, 2])))


def _wrap_deg(angle: float) -> float:
    wrapped = abs(angle) % 360.0
    return 360.0 - wrapped if wrapped > 180.0 else wrapped


def trajectory_errors(pred: list[Pose], gt: list[Pose]) -> tuple[float, float]:
    """Mean planar translation error (m) and mean absolute yaw error (deg).

    Predictions are aligned to the ground truth by the first position
    (translation only; rotating the prediction would cancel exactly the
    heading offset this metric reports). The world is y-up, as in `synth`:
    positions are projected to the ground (xz) plane, yaw is the heading
    about y, and yaw differences are wrapped to [0, 180] degrees.
    """
    if len(pred) != len(gt):
        raise ValueError(f"trajectory length mismatch: {len(pred)} vs {len(gt)}")
    if len(pred) < 2:
        raise ValueError("need at least 2 poses")
    shift = gt[0].translation - pred[0].translation
    trans_errs, rot_errs = [], []
    for p, g in zip(pred, gt):
        dxz = (p.translation + shift - g.translation)[[0, 2]]
        trans_errs.append(float(np.linalg.norm(dxz)))
        rot_errs.append(_wrap_deg(_yaw_deg(p.rotation) - _yaw_deg(g.rotation)))
    return float(np.mean(trans_errs)), float(np.mean(rot_errs))

"""Depth metrics (median-scaled, capped) and ground-plane trajectory errors."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from .geometry import Pose


MIN_VALID_DEPTH = 1e-3


@dataclass(frozen=True)
class DepthEvalConfig:
    """Valid range and scaling policy for depth evaluation: ground truth in
    [MIN_VALID_DEPTH, cap] counts, MIN_VALID_DEPTH being 1e-3 m."""

    cap: float = 10.0
    median_scaling: bool = True

    def __post_init__(self):
        if not MIN_VALID_DEPTH < self.cap:
            raise ValueError(f"need cap > {MIN_VALID_DEPTH}")


@dataclass
class EvalReport:
    """Depth metrics; `abs_rel_constant` is the AbsRel over the same pixels
    of a constant map at the ground truth's median, which any constant map
    scores under median scaling: the figure a depth head must beat."""

    abs_rel: float
    rmse: float
    delta1: float
    delta2: float
    delta3: float
    n_pixels: int
    scale_s: float
    abs_rel_constant: float

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
    """AbsRel, RMSE and threshold accuracies over gt pixels in [MIN_VALID_DEPTH,
    cap], and the AbsRel of the constant map at their median."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValueError("prediction/ground-truth shape mismatch")
    valid = (gt >= MIN_VALID_DEPTH) & (gt <= cfg.cap)
    if not valid.any():
        raise ValueError("empty valid set")
    s = 1.0
    if cfg.median_scaling:
        pred, s = median_scale(pred, gt, valid)
    p, g = pred[valid], gt[valid]
    abs_rel = float(np.mean(np.abs(p - g) / g))
    abs_rel_constant = float(np.mean(np.abs(np.median(g) - g) / g))
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
        abs_rel_constant=abs_rel_constant,
    )


def mean_reports(reports: list[EvalReport]) -> EvalReport:
    """Per-image metrics averaged over a test set (pixel counts summed)."""
    if not reports:
        raise ValueError("no reports to average")
    n = len(reports)
    sums = {f.name: sum(getattr(r, f.name) for r in reports) for f in fields(EvalReport)}
    return EvalReport(**{name: total if name == "n_pixels" else total / n for name, total in sums.items()})


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

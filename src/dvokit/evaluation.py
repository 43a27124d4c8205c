"""Depth metrics (median-scaled, capped)."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np


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


def depth_metrics(pred, gt, cfg: DepthEvalConfig = DepthEvalConfig()) -> EvalReport:
    """AbsRel, RMSE and threshold accuracies over gt pixels in [MIN_VALID_DEPTH,
    cap], and the AbsRel of the constant map at their median. With
    `cfg.median_scaling` the prediction is scaled by s = median(gt) /
    median(pred) over those pixels first."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValueError("prediction/ground-truth shape mismatch")
    valid = (gt >= MIN_VALID_DEPTH) & (gt <= cfg.cap)
    if not valid.any():
        raise ValueError("empty valid set")
    p, g = pred[valid], gt[valid]
    g_median = float(np.median(g))
    s = 1.0
    if cfg.median_scaling:
        p_median = float(np.median(p))
        if p_median == 0.0:
            raise ValueError("zero median in prediction")
        s = g_median / p_median
    p = p * s  # median scaling, at the valid pixels alone (exact at s = 1)
    abs_rel = float(np.mean(np.abs(p - g) / g))
    abs_rel_constant = float(np.mean(np.abs(g_median - g) / g))
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

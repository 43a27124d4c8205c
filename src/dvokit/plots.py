"""Dependency-free SVG plotting for trajectory overlays."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .geometry import Pose


def _polyline_points(xz: np.ndarray, to_px) -> str:
    return " ".join(f"{to_px(p)[0]:.2f},{to_px(p)[1]:.2f}" for p in xz)


def trajectory_svg(pred: list[Pose], gt: list[Pose], path) -> None:
    """Write a 480 x 480 px SVG overlaying the ground-plane (xz) projections
    of two trajectories in the y-up world (ground truth blue, prediction
    orange), x to the right and z up the page."""
    size = 480
    pred_xz = np.array([p.translation[[0, 2]] for p in pred])
    gt_xz = np.array([p.translation[[0, 2]] for p in gt])
    allpts = np.vstack([pred_xz, gt_xz])
    lo = allpts.min(axis=0)
    hi = allpts.max(axis=0)
    span = max(float((hi - lo).max()), 1e-6)
    margin = 40.0
    scale = (size - 2 * margin) / span

    def to_px(p):
        x = margin + (p[0] - lo[0]) * scale
        y = size - margin - (p[1] - lo[1]) * scale  # z up the page
        return x, y

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect x="1" y="1" width="{size - 2}" height="{size - 2}" '
        'fill="white" stroke="#888" stroke-width="1"/>',
        f'<polyline points="{_polyline_points(gt_xz, to_px)}" '
        'fill="none" stroke="#1f4fbf" stroke-width="2"/>',
        f'<polyline points="{_polyline_points(pred_xz, to_px)}" '
        'fill="none" stroke="#e88722" stroke-width="2"/>',
        f'<text x="{margin}" y="24" font-family="monospace" font-size="14" '
        'fill="#1f4fbf">ground truth</text>',
        f'<text x="{margin}" y="42" font-family="monospace" font-size="14" '
        'fill="#e88722">prediction</text>',
        "</svg>",
    ]
    Path(path).write_text("\n".join(parts) + "\n")

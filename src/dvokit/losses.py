"""Self-supervised objective: masked photometric, geometric-consistency, and
edge-aware smoothness terms combined into one differentiable total.

The photometric and geometric terms are means over the valid set (pixels
whose reprojection lands inside the target image with positive depth); they
read those pixels by boolean index, and frame b's depth is sampled only
there. The self-discovered mask ``1 - depth_difference`` down-weights
dynamic and occluded regions in the photometric term; it is
gradient-stopped there so inflating the depth inconsistency can never zero
the photometric loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import EmptyValidSetError, Tensor, ssim
from .geometry import CameraIntrinsics, Pose, bilinear_sample, warp_depth


@dataclass(frozen=True)
class LossWeights:
    """Blend weights: lambda for the SSIM share of the photometric term,
    beta and gamma for the geometric and smoothness terms of the total."""

    lambda_ssim: float = 0.85
    beta: float = 0.5
    gamma: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.lambda_ssim <= 1.0:
            raise ValueError("lambda_ssim must be in [0, 1]")
        if not (0.0 <= self.beta < np.inf and 0.0 <= self.gamma < np.inf):
            raise ValueError("beta and gamma must be finite and non-negative")


@dataclass
class LossBreakdown:
    """Scalar loss terms plus the diagnostic maps behind them."""

    l_p_masked: Tensor
    l_g: Tensor
    l_s: Tensor
    l_total: Tensor
    d_diff: np.ndarray
    m_s: np.ndarray
    valid: np.ndarray
    valid_count: int

    def scalars(self) -> dict[str, float]:
        return {
            "l_p_masked": self.l_p_masked.item(),
            "l_g": self.l_g.item(),
            "l_s": self.l_s.item(),
            "l_total": self.l_total.item(),
        }


def depth_diff(d_hat: Tensor, d_sampled: Tensor) -> Tensor:
    """Normalized depth inconsistency |a - b| / (a + b) of two positive depths."""
    return (d_hat - d_sampled).abs() / (d_hat + d_sampled)


def photometric_loss(image: Tensor, synthesized: Tensor, weights: LossWeights = LossWeights()) -> Tensor:
    """Per-pixel photometric map (H, W): the channel-mean L1 difference
    blended with the SSIM dissimilarity (1 - SSIM)/2, weighted by lambda."""
    l1 = (image - synthesized).abs().mean(axis=0)
    lam = weights.lambda_ssim
    dssim = (1.0 - ssim(image, synthesized)) * 0.5
    return (1.0 - lam) * l1 + lam * dssim


def smoothness_loss(depth: Tensor, image: Tensor) -> Tensor:
    """Edge-aware squared smoothness of mean-normalized depth.

    Forward differences along x and y; each term is
    (exp(-|channel-mean image gradient|) * depth gradient)^2 and the result is
    the mean over all interior terms of both directions. Normalizing by the
    mean depth keeps the penalty scale-free. The edge weights are computed
    in numpy: no caller differentiates the image, so none flows to it.
    """
    img = image.data
    d = depth / depth.mean()
    dx_d = d[:, 1:] - d[:, :-1]
    dy_d = d[1:, :] - d[:-1, :]
    edge_x = np.exp(-np.abs(img[:, :, 1:] - img[:, :, :-1]).mean(axis=0))
    edge_y = np.exp(-np.abs(img[:, 1:, :] - img[:, :-1, :]).mean(axis=0))
    term_x = (Tensor(edge_x) * dx_d) ** 2.0
    term_y = (Tensor(edge_y) * dy_d) ** 2.0
    n = term_x.size + term_y.size
    return (term_x.sum() + term_y.sum()) / float(n)


def total_loss(
    pair,
    depth_a: Tensor | np.ndarray,
    depth_b: Tensor | np.ndarray,
    pose: Pose | Tensor,
    weights: LossWeights = LossWeights(),
    mask_override: np.ndarray | None = None,
) -> LossBreakdown:
    """Full self-supervised objective for one frame pair.

    `depth_a`/`depth_b` are the predicted depths of both frames (Tensor or
    array); `pose` maps frame-a camera coordinates to frame b (Pose or twist
    Tensor). Differentiable w.r.t. both depths and the twist.

    The photometric weighting mask is gradient-stopped; `mask_override`
    substitutes a fixed mask array, which finite-difference audits use to
    probe the same function the backward pass differentiates.

    Images must be (3, H, W) and depths (H, W) at the intrinsics' size;
    anything else raises ValueError (sampling would clamp to the wrong image).
    """
    k: CameraIntrinsics = pair.intrinsics
    d_a = depth_a if isinstance(depth_a, Tensor) else Tensor(depth_a)
    d_b = depth_b if isinstance(depth_b, Tensor) else Tensor(depth_b)
    hw = (k.height, k.width)
    for name, shape, want in (
        ("image_a", np.shape(pair.image_a), (3, *hw)),
        ("image_b", np.shape(pair.image_b), (3, *hw)),
        ("depth_a", d_a.shape, hw),
        ("depth_b", d_b.shape, hw),
    ):
        if shape != want:
            raise ValueError(f"{name} has shape {shape}, the intrinsics need {want}")

    warp = warp_depth(d_a, pose, k)
    valid = warp.valid
    if not valid.any():
        raise EmptyValidSetError("empty-valid-set")

    image_a = Tensor(pair.image_a)
    synthesized = bilinear_sample(Tensor(pair.image_b), warp.flow)
    d_b_sampled = bilinear_sample(d_b.reshape(1, *hw), warp.flow[valid])[0]

    dd = depth_diff(warp.depth[valid], d_b_sampled)
    l_g = dd.mean()
    if mask_override is not None:
        m_s = Tensor(mask_override[valid])
    else:
        # gradient-stopped by design: a live mask could zero the photometric
        # term by inflating the depth inconsistency
        m_s = (1.0 - dd).detach()

    lp_map = photometric_loss(image_a, synthesized, weights)
    l_pm = (m_s * lp_map[valid]).mean()
    l_s = smoothness_loss(d_a, image_a)
    l_total = l_pm + weights.beta * l_g + weights.gamma * l_s

    d_map, m_map = np.zeros(hw), np.zeros(hw)
    d_map[valid], m_map[valid] = dd.data, m_s.data
    return LossBreakdown(
        l_p_masked=l_pm,
        l_g=l_g,
        l_s=l_s,
        l_total=l_total,
        d_diff=d_map,
        m_s=m_map,
        valid=valid,
        valid_count=int(valid.sum()),
    )

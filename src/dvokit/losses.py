"""Self-supervised objective: masked photometric, geometric-consistency, and
edge-aware smoothness terms combined into one differentiable total.

All terms are averaged over the valid set (pixels whose reprojection lands
inside the target image with positive depth). The self-discovered mask
``1 - depth_difference`` down-weights dynamic and occluded regions in the
photometric term; it is gradient-stopped there so inflating the depth
inconsistency can never zero the photometric loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import EmptyValidSetError, Tensor, masked_mean
from .geometry import CameraIntrinsics, Pose, bilinear_sample, warp_depth

_SSIM_C1 = 0.01**2
_SSIM_C2 = 0.03**2


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
        if self.beta < 0 or self.gamma < 0:
            raise ValueError("beta and gamma must be non-negative")


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


def depth_diff(d_hat: Tensor, d_sampled: Tensor, valid: np.ndarray) -> Tensor:
    """Per-pixel normalized depth inconsistency |a - b| / (a + b); 0 outside
    the valid set. Both depths must be positive on the valid set."""
    num = ad.where(valid, (d_hat - d_sampled).abs(), 0.0)
    den = ad.where(valid, d_hat + d_sampled, 1.0)
    return num / den


def geometric_loss(d_diff_map: Tensor, valid: np.ndarray) -> Tensor:
    """Mean depth inconsistency over the valid set."""
    return masked_mean(d_diff_map, valid)


def ssim(a: Tensor, b: Tensor) -> Tensor:
    """Local structural similarity of two (C, H, W) images in [0, 1].

    3x3 uniform window with edge replication, stability constants
    C1 = 0.01^2 and C2 = 0.03^2, channel-averaged to an (H, W) map in [-1, 1].
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    mu_a, mu_b = ad.box3(a), ad.box3(b)
    var_a = ad.box3(a * a) - mu_a * mu_a
    var_b = ad.box3(b * b) - mu_b * mu_b
    cov = ad.box3(a * b) - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + _SSIM_C1) * (2.0 * cov + _SSIM_C2)
    den = (mu_a * mu_a + mu_b * mu_b + _SSIM_C1) * (var_a + var_b + _SSIM_C2)
    return (num / den).mean(axis=0).clamp(-1.0, 1.0)


def photometric_loss(
    image: Tensor, synthesized: Tensor, valid: np.ndarray, weights: LossWeights = LossWeights()
) -> tuple[Tensor, Tensor]:
    """Per-pixel photometric map and its mean over the valid set.

    The map blends the channel-mean L1 difference with the SSIM dissimilarity
    (1 - SSIM)/2, weighted by lambda.
    """
    l1 = (image - synthesized).abs().mean(axis=0)
    lam = weights.lambda_ssim
    if lam == 0.0:
        lp_map = l1
    else:
        dssim = (1.0 - ssim(image, synthesized)) * 0.5
        lp_map = (1.0 - lam) * l1 + lam * dssim
    return lp_map, masked_mean(lp_map, valid)


def masked_photometric_loss(lp_map: Tensor, m_s: Tensor, valid: np.ndarray) -> Tensor:
    """Mean of the mask-weighted photometric map over the valid set."""
    return masked_mean(m_s * lp_map, valid)


def smoothness_loss(depth: Tensor, image: Tensor) -> Tensor:
    """Edge-aware squared smoothness of mean-normalized depth.

    Forward differences along x and y; each term is
    (exp(-|channel-mean image gradient|) * depth gradient)^2 and the result is
    the mean over all interior terms of both directions. Normalizing by the
    mean depth keeps the penalty scale-free.
    """
    d = depth / depth.mean()
    dx_d = d[:, 1:] - d[:, :-1]
    dy_d = d[1:, :] - d[:-1, :]
    gx_i = (image[:, :, 1:] - image[:, :, :-1]).abs().mean(axis=0)
    gy_i = (image[:, 1:, :] - image[:, :-1, :]).abs().mean(axis=0)
    term_x = ((-gx_i).exp() * dx_d) ** 2.0
    term_y = ((-gy_i).exp() * dy_d) ** 2.0
    n = term_x.size + term_y.size
    return (term_x.sum() + term_y.sum()) / float(n)


def combine_losses(l_p_masked: Tensor, l_g: Tensor, l_s: Tensor, weights: LossWeights) -> Tensor:
    """Weighted sum; the identity total = photometric + beta*geometric +
    gamma*smoothness holds exactly by construction."""
    return l_p_masked + weights.beta * l_g + weights.gamma * l_s


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
    """
    k: CameraIntrinsics = pair.intrinsics
    d_a = depth_a if isinstance(depth_a, Tensor) else Tensor(depth_a)
    d_b = depth_b if isinstance(depth_b, Tensor) else Tensor(depth_b)

    warp = warp_depth(d_a, pose, k)
    valid = warp.valid
    if not valid.any():
        raise EmptyValidSetError("empty-valid-set")

    image_a = Tensor(pair.image_a)
    synthesized = bilinear_sample(Tensor(pair.image_b), warp.flow)
    h, w = d_a.shape
    d_b_sampled = bilinear_sample(d_b.reshape(1, h, w), warp.flow)[0]

    dd = depth_diff(warp.depth, d_b_sampled, valid)
    l_g = geometric_loss(dd, valid)
    if mask_override is not None:
        m_s = Tensor(mask_override)
    else:
        m_s = ad.where(valid, 1.0 - dd, 0.0).detach()  # gradient-stopped by design

    lp_map, _ = photometric_loss(image_a, synthesized, valid, weights)
    l_pm = masked_photometric_loss(lp_map, m_s, valid)
    l_s = smoothness_loss(d_a, image_a)
    l_total = combine_losses(l_pm, l_g, l_s, weights)

    return LossBreakdown(
        l_p_masked=l_pm,
        l_g=l_g,
        l_s=l_s,
        l_total=l_total,
        d_diff=dd.data.copy(),
        m_s=m_s.data.copy(),
        valid=valid,
        valid_count=int(valid.sum()),
    )

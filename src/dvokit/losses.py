"""Self-supervised objective: masked photometric, geometric-consistency, and
edge-aware smoothness terms combined into one differentiable total.

The photometric and geometric terms are means over the valid set (pixels
whose reprojection lands inside the target image with positive depth), and
frame b's depth is sampled only there. The self-discovered mask ``1 -
depth_consistency`` down-weights dynamic and occluded regions in the
photometric term; it is gradient-stopped there so inflating the depth
inconsistency can never zero the photometric loss. Each term is one graph
node whose forward and backward run the arithmetic of the primitive-node
composite it replaced (``tests/oracles.py``) in its order, bit for bit.
The objective computes in float64: a term widens the network's float32
depth maps and twist, whose gradients ``autodiff.backward`` casts back.

``PairObjective`` holds what no depth or pose changes, built once per pair;
``total_loss`` builds one per call when handed a frame pair, so training
and direct descent run one code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import EmptyValidSetError, Tensor, bilinear, ssim, ssim_moments
from .geometry import _VALID_EPS, Pose, bilinear_sample, ray_matrix, warp_depth


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


def photometric_loss(image: Tensor, synthesized: Tensor, weights: LossWeights = LossWeights(), moments=None) -> Tensor:
    """Per-pixel photometric map (H, W) as one graph node: the channel-mean
    L1 difference blended with the SSIM dissimilarity (1 - SSIM)/2, weighted
    by lambda. `moments` are ``ssim_moments`` of `image`, if kept."""
    x, y, lam = image.data, synthesized.data, weights.lambda_ssim
    diff = x - y
    s, ssim_backward = ssim(x, y, moments)

    def grad_fn(g):
        g_abs = g * (1.0 - lam) / diff.shape[0] * np.sign(diff)  # through the channel mean; 0 at 0
        g_x, g_y = ssim_backward(-(g * lam * 0.5), image.requires_grad, synthesized.requires_grad)
        return g_abs + g_x if image.requires_grad else None, g_y - g_abs if synthesized.requires_grad else None

    out = np.abs(diff).mean(axis=0) * (1.0 - lam) + (1.0 - s) * 0.5 * lam
    return Tensor._make(out, (image, synthesized), grad_fn, "photometric_loss")


def depth_consistency(uvz: Tensor, depth_b: Tensor, valid: np.ndarray) -> Tensor:
    """Normalized depth inconsistency |z - d| / (z + d) of the valid pixels
    (n,) as one graph node: z of ``reproject``'s (H, W, 3) map `uvz`, d of
    `depth_b` (H, W) sampled at its flow (at the warp's 1e-9 px tolerance)."""
    h, w = valid.shape
    picked = np.flatnonzero(valid)
    rows = uvz.data.reshape(h * w, 3).take(picked, axis=0)  # (n, 3): u', v', z
    image_b = np.asarray(depth_b.data, dtype=np.float64).reshape(1, h, w)
    sampled, sample_backward = bilinear(image_b, rows[:, :2], _VALID_EPS)
    z, d = rows[:, 2], sampled[0]
    diff, den = z - d, z + d
    num = np.abs(diff)

    def grad_fn(g):
        g_den, g_diff = -g * num / (den * den), g / den * np.sign(diff)
        g_img, g_flow = sample_backward((g_den - g_diff)[None], depth_b.requires_grad, uvz.requires_grad)
        g_uvz = None
        if uvz.requires_grad:
            g_uvz = np.zeros((h * w, 3))
            g_uvz[picked, :2], g_uvz[picked, 2] = g_flow, g_den + g_diff
            g_uvz += 0.0  # -0.0 to 0.0: the composite added the picks' gradients to zeros
            g_uvz = g_uvz.reshape(h, w, 3)
        return g_uvz, None if g_img is None else g_img.reshape(h, w)

    return Tensor._make(num / den, (uvz, depth_b), grad_fn, "depth_consistency")


def masked_mean(values: Tensor, mask: np.ndarray, valid: np.ndarray) -> Tensor:
    """Mean of `mask` * `values` over the valid pixels as one graph node;
    `mask` (n,), given on the valid set, is a constant."""

    def grad_fn(g):
        g_values = np.zeros_like(values.data)
        g_values[valid] += g / mask.size * mask
        return (g_values,)

    return Tensor._make((mask * values.data[valid]).mean(), (values,), grad_fn, "masked_mean")


def edge_weights(image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(-|channel-mean image gradient|) along x and y, as arrays: no
    caller differentiates the image."""
    return tuple(np.exp(-np.abs(np.diff(image, axis=axis)).mean(axis=0)) for axis in (2, 1))


def smoothness(depth: Tensor, edges: tuple[np.ndarray, np.ndarray]) -> Tensor:
    """Edge-aware squared smoothness of mean-normalized depth, given the
    image's ``edge_weights``, as one graph node (Monodepth2, arXiv
    1806.01260): the mean over the interior forward differences along x and
    y of (exp(-|channel-mean image gradient|) * depth difference)^2. The
    mean depth's normalization keeps it scale-free. Forward and backward run
    the primitive-node composite's arithmetic (``tests/oracles.py``) in its
    order, bit for bit: `depth` is the node's parent twice, as numerator and
    through the mean, so its two gradients reach it as two terms, after the
    warp's, as in the composite's graph."""
    values = np.asarray(depth.data, dtype=np.float64)
    mean = values.mean()
    d = values / mean
    tx, ty = edges[0] * (d[:, 1:] - d[:, :-1]), edges[1] * (d[1:, :] - d[:-1, :])
    n = float(tx.size + ty.size)

    def grad_fn(g):
        gx, gy = g / n * 2.0 * tx * edges[0], g / n * 2.0 * ty * edges[1]
        gd = np.zeros_like(d)  # the four slices' gradients, added in the composite's order
        gd[:, 1:] += gx
        gd[:, :-1] -= gx
        gd[1:, :] += gy
        gd[:-1, :] -= gy
        g_mean = (-gd * values / (mean * mean)).sum(axis=(0, 1))
        return gd / mean, np.full_like(d, g_mean / d.size)

    return Tensor._make(((tx**2.0).sum() + (ty**2.0).sum()) / n, (depth, depth), grad_fn, "smoothness")


class PairObjective:
    """What ``total_loss`` needs of one pair that no depth or pose changes:
    the image Tensors, ray matrix, edge weights and image a's SSIM moments;
    for `fixed_depth_a`, a constant depth Tensor of frame a, also its
    smoothness term, used when ``total_loss`` gets that Tensor."""

    def __init__(self, pair, fixed_depth_a: Tensor | None = None):
        k = self.intrinsics = pair.intrinsics
        want = (3, k.height, k.width)
        for name in ("image_a", "image_b"):
            if np.shape(getattr(pair, name)) != want:
                raise ValueError(f"{name} has shape {np.shape(getattr(pair, name))}, the intrinsics need {want}")
        self.image_a, self.image_b = Tensor(pair.image_a), Tensor(pair.image_b)
        self.rays = ray_matrix(k)
        self.edges = edge_weights(self.image_a.data)
        self.moments_a = ssim_moments(self.image_a.data)
        self.fixed_depth_a = fixed_depth_a
        self.fixed_l_s = None if fixed_depth_a is None else smoothness(fixed_depth_a, self.edges)


def total_loss(
    pair,
    depth_a: Tensor | np.ndarray,
    depth_b: Tensor | np.ndarray,
    pose: Pose | Tensor,
    weights: LossWeights = LossWeights(),
    mask_override: np.ndarray | None = None,
) -> LossBreakdown:
    """Full self-supervised objective for one frame pair, as the warp node,
    the image sampler, the three loss nodes above and the scalar nodes that
    combine them.

    `pair` is a frame pair or its ``PairObjective``, which a caller that
    evaluates one pair many times builds once. `depth_a`/`depth_b` are the
    predicted depths of both frames (Tensor or array); `pose` maps frame-a
    camera coordinates to frame b (Pose or twist Tensor). Differentiable
    w.r.t. both depths and the twist.

    The photometric weighting mask is gradient-stopped, a constant of the
    masked mean; `mask_override` substitutes a fixed mask array, which
    finite-difference audits use to probe what the backward differentiates.

    Images must be (3, H, W) and depths (H, W) at the intrinsics' size;
    anything else raises ValueError (sampling would clamp to the wrong image).
    """
    objective = pair if isinstance(pair, PairObjective) else PairObjective(pair)
    k = objective.intrinsics
    d_a = depth_a if isinstance(depth_a, Tensor) else Tensor(depth_a)
    d_b = depth_b if isinstance(depth_b, Tensor) else Tensor(depth_b)
    hw = (k.height, k.width)
    for name, shape in (("depth_a", d_a.shape), ("depth_b", d_b.shape)):
        if shape != hw:
            raise ValueError(f"{name} has shape {shape}, the intrinsics need {hw}")

    warp = warp_depth(d_a, pose, k, objective.rays)
    valid = warp.valid
    if not valid.any():
        raise EmptyValidSetError("empty-valid-set")

    synthesized = bilinear_sample(objective.image_b, warp.flow)
    dd = depth_consistency(warp.uvz, d_b, valid)
    l_g = dd.mean()
    m_s = 1.0 - dd.data if mask_override is None else np.asarray(mask_override, dtype=np.float64)[valid]

    lp_map = photometric_loss(objective.image_a, synthesized, weights, objective.moments_a)
    l_pm = masked_mean(lp_map, m_s, valid)
    l_s = objective.fixed_l_s if d_a is objective.fixed_depth_a else smoothness(d_a, objective.edges)
    l_total = l_pm + weights.beta * l_g + weights.gamma * l_s

    d_map, m_map = np.zeros(hw), np.zeros(hw)
    d_map[valid], m_map[valid] = dd.data, m_s
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

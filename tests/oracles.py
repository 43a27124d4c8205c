"""Independent reference implementations used to freeze expected test values.

Everything here is deliberately loop-based and separate from the library's
vectorized code paths, except the abs, sqrt, sin, cos, ssim, softmax, gelu,
matmul and where nodes that no library code calls, the composites, the per-frame
forward and the previous kernels at the end: the fused autodiff ops are
checked against composites built from primitive Tensor ops, the batched
two-frame forward against one built from unbatched calls, and the kernels
of the training hot path that now work in place, and the texture that now
hashes each lattice once, against their previous code, bit for bit. The
finite-difference gradient audit, the pair renderer at explicit poses and
the render oracle at arbitrary coordinates serve the tests alone, so they
live here too.
"""

import json
import math
import struct
from typing import Callable

import numpy as np

from dvokit import autodiff as ad
from dvokit import model as model_module
from dvokit import synth as synth_module
from dvokit.autodiff import Tensor, grads
from dvokit.geometry import _SKEW, CameraIntrinsics, Pose, bilinear_sample, ray_matrix, rotation_from_axis_angle
from dvokit.geometry import warp_depth
from dvokit.losses import LossBreakdown, LossWeights, edge_weights, smoothness
from dvokit.synth import Frame, FramePair, Scene, make_pair, render

SSIM_C1 = 0.01**2
SSIM_C2 = 0.03**2


def float64_model(model):
    """`model` with every parameter cast to float64, in place. The dtype
    follows the data, so the model then computes in float64 throughout, as
    every network did before parameters became float32: comparisons at
    1e-12 and finite differences run on it."""
    for _, param in model.named_parameters():
        param.data = param.data.astype(np.float64)
    return model


def finite_diff_check(
    f: Callable[[Tensor], Tensor],
    x: np.ndarray | Tensor,
    h: float = 1e-5,
) -> float:
    """Compare the analytic gradient of scalar ``f(x)`` with central differences.

    Every coordinate of ``x`` is checked; the result is the maximum over them
    of ``|analytic - numeric| / max(1, |analytic|, |numeric|)``. ``f`` must
    be deterministic and scalar-valued.
    """
    # C order, so that `flat` below is a view of x0 whatever the layout of x
    x0 = np.array(x.data if isinstance(x, Tensor) else x, dtype=np.float64, order="C")
    leaf = Tensor(x0.copy(), requires_grad=True)
    analytic = grads(f(leaf), [leaf])[0].reshape(-1)

    worst = 0.0
    flat = x0.reshape(-1)
    for i in range(x0.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(Tensor(x0.copy())).item()
        flat[i] = orig - h
        fm = f(Tensor(x0.copy())).item()
        flat[i] = orig
        numeric = (fp - fm) / (2.0 * h)
        a = analytic[i]
        rel = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
        if rel > worst:
            worst = rel
    return worst


def render_at(scene: Scene, frame: int, cam_to_world: Pose, k: CameraIntrinsics, uv: np.ndarray):
    """Continuous-coordinate render oracle: colors/depths at arbitrary (u, v)."""
    colors, t, _ = synth_module._cast(scene, frame, cam_to_world, k, np.asarray(uv, dtype=np.float64))
    return colors, t


def render_pair(scene: Scene, k: CameraIntrinsics, pose_a: Pose, pose_b: Pose) -> FramePair:
    """Render frames 0 and 1 of the scene at explicit camera poses as a pair."""
    frames = [Frame(*render(scene, i, pose, k), cam_to_world=pose) for i, pose in enumerate((pose_a, pose_b))]
    return make_pair(frames, 0, k)


def ssim_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-pixel SSIM with a 3x3 uniform window and edge replication."""
    c, h, w = a.shape
    out = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            vals = np.zeros(c)
            for ch in range(c):
                wa, wb = [], []
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        yy = min(max(y + dy, 0), h - 1)
                        xx = min(max(x + dx, 0), w - 1)
                        wa.append(a[ch, yy, xx])
                        wb.append(b[ch, yy, xx])
                wa, wb = np.array(wa), np.array(wb)
                mu_a, mu_b = wa.mean(), wb.mean()
                var_a = (wa * wa).mean() - mu_a * mu_a
                var_b = (wb * wb).mean() - mu_b * mu_b
                cov = (wa * wb).mean() - mu_a * mu_b
                num = (2 * mu_a * mu_b + SSIM_C1) * (2 * cov + SSIM_C2)
                den = (mu_a**2 + mu_b**2 + SSIM_C1) * (var_a + var_b + SSIM_C2)
                vals[ch] = num / den
            out[y, x] = vals.mean()
    return out


def smoothness_reference(depth: np.ndarray, image: np.ndarray) -> float:
    """Pooled mean of squared edge-weighted forward differences of d/mean(d)."""
    d = depth / depth.mean()
    h, w = d.shape
    terms = []
    for y in range(h):
        for x in range(w - 1):
            gi = np.abs(image[:, y, x + 1] - image[:, y, x]).mean()
            terms.append((np.exp(-gi) * (d[y, x + 1] - d[y, x])) ** 2)
    for y in range(h - 1):
        for x in range(w):
            gi = np.abs(image[:, y + 1, x] - image[:, y, x]).mean()
            terms.append((np.exp(-gi) * (d[y + 1, x] - d[y, x])) ** 2)
    return float(np.mean(terms))


def depth_metrics_reference(pred: np.ndarray, gt: np.ndarray):
    """Plain-loop depth metrics on already-valid flat arrays."""
    n = len(gt)
    abs_rel = sum(abs(p - g) / g for p, g in zip(pred, gt)) / n
    rmse = (sum((p - g) ** 2 for p, g in zip(pred, gt)) / n) ** 0.5
    deltas = []
    for i in (1, 2, 3):
        thr = 1.25**i
        deltas.append(sum(1 for p, g in zip(pred, gt) if max(p / g, g / p) < thr) / n)
    return abs_rel, rmse, tuple(deltas)


# ---- nodes with no caller in the library ------------------------------------------------


def sqrt(t):
    out = np.sqrt(t.data)
    return Tensor._make(out, (t,), lambda g: (g / (2.0 * out),), "sqrt")


def absolute(t):
    """|t|, with the subgradient 0 at 0 (np.sign(0) == 0)."""
    return Tensor._make(np.abs(t.data), (t,), lambda g: (g * np.sign(t.data),), "abs")


def sin(t):
    return Tensor._make(np.sin(t.data), (t,), lambda g: (g * np.cos(t.data),), "sin")


def cos(t):
    return Tensor._make(np.cos(t.data), (t,), lambda g: (-g * np.sin(t.data),), "cos")


def gelu(t):
    """Exact (erf-based) GELU on `autodiff.gelu_linear`'s kernels."""
    cdf = ad._gelu_cdf(t.data)
    return Tensor._make(t.data * cdf, (t,), lambda g: (ad._gelu_grad(t.data, cdf, g),), "gelu")


def matmul(a, b):
    """``a @ b`` for operands of rank >= 2; a 2-D `b` is a weight, whose
    gradient is one GEMM over every leading row of `a`, as `linear`'s."""
    a, b = ad._as_tensor(a), ad._as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must have rank >= 2")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")

    def grad_fn(g):
        ga = ad._unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape) if a.requires_grad else None
        if not b.requires_grad:
            return ga, None
        if b.ndim == 2:
            return ga, a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        return ga, ad._unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)

    return Tensor._make(a.data @ b.data, (a, b), grad_fn, "matmul")


def where(cond, a, b):
    """Select elementwise by a constant boolean mask; gradients follow the branch."""
    cond = np.asarray(cond, dtype=bool)
    ta, tb = ad._as_tensor(a), ad._as_tensor(b)

    def grad_fn(g):
        ga = ad._unbroadcast(g * cond, ta.shape) if ta.requires_grad else None
        return ga, ad._unbroadcast(g * ~cond, tb.shape) if tb.requires_grad else None

    return Tensor._make(np.where(cond, ta.data, tb.data), (ta, tb), grad_fn, "where")


def ssim(a, b, moments_a=None):
    """`autodiff.ssim`'s map of two (C, H, W) Tensors as one graph node, as
    the photometric term ran it before it was one node itself."""
    a, b = ad._as_tensor(a), ad._as_tensor(b)
    out, backward = ad.ssim(a.data, b.data, moments_a)
    wrt = (a.requires_grad, b.requires_grad)
    return Tensor._make(out, (a, b), lambda g: backward(g, *wrt), "ssim")


def softmax(t, axis=-1):
    """Numerically-stable softmax on `autodiff.attention`'s kernels; the max
    shift is treated as a constant."""
    out = ad._softmax(t.data, axis)
    return Tensor._make(out, (t,), lambda g: (ad._softmax_grad(out, g, axis),), "softmax")


# ---- composites the fused autodiff ops replaced ---------------------------------------


def conv3x3_composite(x, weight, bias):
    """3x3 zero-padded convolution as nine shifted 1x1 projections; a
    (B, C, H, W) batch is convolved map by map."""
    if x.ndim == 4:
        return ad.concat([conv3x3_composite(x[i], weight, bias)[None] for i in range(x.shape[0])])
    c, h, w = x.shape
    c_out = weight.shape[3]
    zr = Tensor(np.zeros((c, 1, w)))
    xp = ad.concat([zr, x, zr], axis=1)
    zc = Tensor(np.zeros((c, h + 2, 1)))
    xp = ad.concat([zc, xp, zc], axis=2)
    acc = None
    for dy in range(3):
        for dx in range(3):
            patch = xp[:, dy : dy + h, dx : dx + w]
            term = matmul(patch.reshape(c, h * w).transpose(1, 0), weight[dy, dx])
            acc = term if acc is None else acc + term
    out = acc + bias  # (HW, c_out)
    return out.transpose(1, 0).reshape(c_out, h, w)


def taps_forward_two_copies(xp, w2, taps, h, w):
    """`autodiff._taps_forward` as it first was: one reshape copy of each
    tap's rows, then one more to concatenate them into the im2col matrix."""
    c, n = xp.shape[:2]
    cols = np.concatenate([xp[:, :, dy : dy + h, dx : dx + w].reshape(c, n * h * w) for dy, dx in taps])
    return w2.T @ cols.reshape(len(cols), n, h * w).transpose(1, 0, 2)


def conv3x3_up2_composite(x, weight, bias):
    """x2 nearest upsampling, then the 3x3 convolution at full resolution."""
    return ad.conv3x3(ad.upsample_nearest(x, 2), weight, bias)


def conv3x3_up2(x, weight, bias):
    """``conv3x3_up2_composite`` on the coarse map, the polyphase way, as one
    node: one im2col GEMM per output phase (row and column parity) and map,
    with the 3x3 kernel folded onto that phase's 2x2 kernel, writes the
    phase's strided slots of the (..., C_out, 2H, 2W) output. The DPT head
    ran it, then GELU and its 1x1 projection as a `gelu_linear` node, until
    `ad.conv3x3_up2_gelu_linear` took all three phase by phase."""
    x, weight, bias, lead, c, h, w, c_out = ad._conv_operands("conv3x3_up2", x, weight, bias)
    n = math.prod(lead)

    def operands():  # the padded coarse maps and the four phase kernels
        kernels = ad._UP2_FOLD @ weight.data.reshape(9, c * c_out)
        return ad._pad_channel_major(x.data, n, c, h, w), kernels.reshape(4, 4 * c, c_out)

    xp, kernels = operands()
    out = np.empty((n, c_out, 2 * h, 2 * w))
    for ((py, px), taps), k2 in zip(ad._UP2_PHASES, kernels):
        phase = ad._taps_forward(xp, k2, taps, h, w)
        phase += bias.data[:, None]
        out[:, :, py::2, px::2] = phase.reshape(n, c_out, h, w)

    def grad_fn(g):
        g = g.reshape(n, c_out, 2 * h, 2 * w)
        # one copy into (phase row, phase column, C_out, n, H, W), so each
        # phase's (C_out, n*H*W) gradient is a contiguous block
        phases = g.reshape(n, c_out, h, 2, w, 2).transpose(3, 5, 1, 0, 2, 4).copy()
        xp, kernels = operands()
        gxp = np.zeros_like(xp)
        gk = np.empty((4, 4, c, c_out))
        for i, (((py, px), taps), k2) in enumerate(zip(ad._UP2_PHASES, kernels)):
            g2 = phases[py, px].reshape(c_out, n * h * w)
            gk[i] = ad._taps_backward(xp, k2, taps, g2, gxp, h, w)
        gw = ad._UP2_FOLD.T @ gk.reshape(16, c * c_out)
        return ad._unpad_channel_major(gxp, lead, c, h, w), gw.reshape(weight.shape), g.sum(axis=(0, 2, 3))

    return Tensor._make(out.reshape(*lead, c_out, 2 * h, 2 * w), (x, weight, bias), grad_fn, "conv3x3_up2")


def conv3x3_up2_gelu_linear_composite(x, weight, bias, proj_weight, proj_bias, up2=conv3x3_up2):
    """The x2 conv `up2`, then GELU and the 1x1 projection to one channel as
    a `gelu_linear` node on the swapped channel view: the DPT head's last
    three steps as it ran them before `ad.conv3x3_up2_gelu_linear`, giving
    the (..., 2H, 2W) map."""
    y = up2(x, weight, bias)
    *lead, c, h, w = y.shape
    raw = ad.gelu_linear(swap_last(y.reshape(*lead, c, h * w)), proj_weight, proj_bias)
    return raw.reshape(*lead, h, w)


def softmax_composite(t, axis=-1):
    """Max-shifted softmax from exp, sum and div nodes."""
    shift = Tensor(t.data.max(axis=axis, keepdims=True))
    e = (t - shift).exp()
    return e / e.sum(axis=axis, keepdims=True)


def layernorm_composite(t, gamma, beta, eps=1e-5):
    """Layer normalization over the last axis from mean, sub, sqrt and div nodes."""
    mu = t.mean(axis=-1, keepdims=True)
    centred = t - mu
    var = (centred * centred).mean(axis=-1, keepdims=True)
    normed = centred / sqrt(var + eps)
    return normed * gamma + beta


def clamp_composite(t, lo, hi):
    """Clamp from one `where` node: the values of ``np.clip``, the gradient
    passed inside [lo, hi] and zero outside."""
    return where((t.data >= lo) & (t.data <= hi), t, np.clip(t.data, lo, hi))


def box3_composite(img):
    """3x3 edge-replicated box filter from slice, concat and add nodes."""
    rows = ad.concat([img[:, :1, :], img, img[:, -1:, :]], axis=1)
    p = ad.concat([rows[:, :, :1], rows, rows[:, :, -1:]], axis=2)
    h, w = img.shape[1], img.shape[2]
    acc = None
    for dy in range(3):
        for dx in range(3):
            sl = p[:, dy : dy + h, dx : dx + w]
            acc = sl if acc is None else acc + sl
    return acc * (1.0 / 9.0)


def ssim_composite(a, b):
    """SSIM map from four box filters and elementwise nodes, in the fused
    op's order of arithmetic."""
    mu_a, mu_b = box3_composite(a), box3_composite(b)
    var_a = box3_composite(a * a) - mu_a * mu_a
    var_b = box3_composite(b * b) - mu_b * mu_b
    cov = box3_composite(a * b) - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + SSIM_C1) * (2.0 * cov + SSIM_C2)
    den = (mu_a * mu_a + mu_b * mu_b + SSIM_C1) * (var_a + var_b + SSIM_C2)
    return clamp_composite((num / den).mean(axis=0), -1.0, 1.0)


def bilinear_sample_composite(img, coords, tol=1e-9):
    """Bilinear sampling from clamp, advanced-getitem and elementwise nodes.
    `tol` moves the cell choice as in the fused op, but the clamp stops the
    coordinate gradient right outside the image: the two agree unless a
    coordinate lies within `tol` outside it."""
    _, h, w = img.shape
    x = clamp_composite(coords[..., 0], 0.0, w - 1.0)
    y = clamp_composite(coords[..., 1], 0.0, h - 1.0)
    x0 = np.clip(np.floor(x.data + tol), 0, w - 2).astype(np.int64)
    y0 = np.clip(np.floor(y.data + tol), 0, h - 2).astype(np.int64)
    wx = x - Tensor(x0.astype(np.float64))
    wy = y - Tensor(y0.astype(np.float64))
    wx1 = Tensor(1.0) - wx
    top = img[:, y0, x0] * wx1 + img[:, y0, x0 + 1] * wx
    bot = img[:, y0 + 1, x0] * wx1 + img[:, y0 + 1, x0 + 1] * wx
    return top * (Tensor(1.0) - wy) + bot * wy


def rotation_from_axis_angle_composite(r):
    """Rodrigues rotation I + a K + b K^2, K = [r]x, from primitive nodes,
    with the Taylor branch below |r|^2 = 1e-12."""
    theta_sq = (r * r).sum()
    if theta_sq.item() < 1e-12:
        # series in theta^2 keeps the gradient finite through the origin
        a = Tensor(1.0) - theta_sq * (1.0 / 6.0) + theta_sq * theta_sq * (1.0 / 120.0)
        b = Tensor(0.5) - theta_sq * (1.0 / 24.0) + theta_sq * theta_sq * (1.0 / 720.0)
    else:
        theta = sqrt(theta_sq)
        a = sin(theta) / theta
        b = (Tensor(1.0) - cos(theta)) / theta_sq
    k = matmul(r.reshape(1, 3), Tensor(_SKEW)).reshape(3, 3)
    return Tensor(np.eye(3)) + a * k + b * matmul(k, k)


def pose_tensors(pose):
    """(rotation, translation) Tensors: constants from a Pose, or the
    Rodrigues rotation node of a twist Tensor's slice and the other slice."""
    if isinstance(pose, Pose):
        return Tensor(pose.rotation), Tensor(pose.translation)
    return rotation_from_axis_angle(pose[3:6]), pose[0:3]


def warp_depth_composite(depth, pose, k, rays=None):
    """`geometry.warp_depth` from reshape, mul, getitem, matmul, add, where,
    div and transpose nodes, with the Rodrigues rotation node: the point
    matrix rays * depth row, ``R @ P + t``, and the projection of its x, y
    rows, dividing by 1 where z <= 1e-9."""
    r_t, t_t = pose_tensors(pose)
    h, w = k.height, k.width
    d = depth if isinstance(depth, Tensor) else Tensor(depth)
    points = Tensor(ray_matrix(k) if rays is None else rays) * d.reshape(1, h * w)
    points = matmul(r_t, points) + t_t.reshape(3, 1)
    z = points[2]
    front = z.data > 1e-9
    uv = points[:2] * np.array([[k.fx], [k.fy]]) / where(front, z, 1.0) + np.array([[k.cx], [k.cy]])
    upper = np.array([[w - 1.0], [h - 1.0]]) + 1e-9
    valid = front & ((uv.data >= -1e-9) & (uv.data <= upper)).all(axis=0)
    return uv.transpose().reshape(h, w, 2), z.reshape(h, w), valid.reshape(h, w)


def reproject_composite(depth, pose, k, rays=None):
    """`geometry.reproject`'s (H, W, 3) map from ``warp_depth_composite``'s flow and depth."""
    flow, z, _ = warp_depth_composite(depth, pose, k, rays)
    return ad.concat([flow, z.reshape(k.height, k.width, 1)], axis=2)


def warp_views(depth, pose, k, rays=None):
    """(flow, depth, valid) of `geometry.warp_depth`: the flow and depth as
    getitem views of its ``reproject`` node, as ``warp_depth_composite``
    gives them."""
    warp = warp_depth(depth, pose, k, rays)
    return warp.flow, warp.depth, warp.valid


def smoothness_composite(depth, edges):
    """`losses.smoothness` from mean, div, getitem, sub, mul, pow, sum and add nodes."""
    d = depth / depth.mean()
    term_x = (Tensor(edges[0]) * (d[:, 1:] - d[:, :-1])) ** 2.0
    term_y = (Tensor(edges[1]) * (d[1:, :] - d[:-1, :])) ** 2.0
    return (term_x.sum() + term_y.sum()) / float(term_x.size + term_y.size)


def depth_diff(d_hat, d_sampled):
    """Normalized depth inconsistency |a - b| / (a + b) of two positive depths."""
    return absolute(d_hat - d_sampled) / (d_hat + d_sampled)


def photometric_loss_composite(image, synthesized, weights=LossWeights(), moments=None):
    """`losses.photometric_loss` from sub, abs, mean, mul, add nodes and the SSIM node."""
    l1 = absolute(image - synthesized).mean(axis=0)
    lam = weights.lambda_ssim
    dssim = (Tensor(1.0) - ssim(image, synthesized, moments)) * 0.5
    return (1.0 - lam) * l1 + lam * dssim


def depth_consistency_composite(flow, z, depth_b, valid):
    """`losses.depth_consistency` from getitem, reshape, sub, abs, add and
    div nodes and the sampler node, on the warp's flow (H, W, 2) and depth
    (H, W) Tensors."""
    h, w = valid.shape
    return depth_diff(z[valid], bilinear_sample(depth_b.reshape(1, h, w), flow[valid])[0])


def masked_mean_composite(values, mask, valid):
    """`losses.masked_mean` from getitem, mul and mean nodes."""
    return (Tensor(mask) * values[valid]).mean()


def total_loss_composite(pair, depth_a, depth_b, pose, weights=LossWeights(), mask_override=None,
                         warp=warp_views, smooth=smoothness):
    """`losses.total_loss`'s breakdown with the photometric map, the depth
    inconsistency and the masked mean from their composites, and the warp
    (flow, depth and valid set) and the smoothness term from `warp` and
    `smooth`: the fused nodes by default, or their composites."""
    k = pair.intrinsics
    d_a = depth_a if isinstance(depth_a, Tensor) else Tensor(depth_a)
    d_b = depth_b if isinstance(depth_b, Tensor) else Tensor(depth_b)
    flow, z, valid = warp(d_a, pose, k)
    image_a = Tensor(pair.image_a)
    synthesized = bilinear_sample(Tensor(pair.image_b), flow)
    dd = depth_consistency_composite(flow, z, d_b, valid)
    l_g = dd.mean()
    m_s = Tensor((Tensor(1.0) - dd).data if mask_override is None else mask_override[valid])  # gradient-stopped
    lp_map = photometric_loss_composite(image_a, synthesized, weights, ad.ssim_moments(image_a.data))
    l_pm = masked_mean_composite(lp_map, m_s.data, valid)
    l_s = smooth(d_a, edge_weights(pair.image_a))
    l_total = l_pm + weights.beta * l_g + weights.gamma * l_s
    d_map, m_map = np.zeros(valid.shape), np.zeros(valid.shape)
    d_map[valid], m_map[valid] = dd.data, m_s.data
    return LossBreakdown(l_pm, l_g, l_s, l_total, d_map, m_map, valid, int(valid.sum()))


def linear_composite(x, weight, bias):
    """An affine map from a matmul and an add node."""
    return matmul(x, weight) + bias


def gelu_linear_composite(x, weight, bias):
    """GELU, then the affine map: a gelu and a linear node."""
    return ad.linear(gelu(x), weight, bias)


def swap_last(x):
    """Swap the last two axes of a tensor of any rank."""
    lead = tuple(range(x.ndim - 2))
    return x.transpose(*lead, x.ndim - 1, x.ndim - 2)


def _split_heads(x, heads):
    """(..., N, D) -> (..., h, N, D/h)."""
    *lead, n, d = x.shape
    nl = len(lead)
    return x.reshape(*lead, n, heads, d // heads).transpose(*range(nl), nl + 1, nl, nl + 2)


def _merge_heads(x):
    """(..., h, N, dh) -> (..., N, h*dh)."""
    *lead, h, n, dh = x.shape
    nl = len(lead)
    return x.transpose(*range(nl), nl + 1, nl, nl + 2).reshape(*lead, n, h * dh)


def _attend(q, k, v, scale):
    attn = softmax(matmul(q, swap_last(k)) * scale, axis=-1)
    return _merge_heads(matmul(attn, v))


def attention_composite(*packed, heads):
    """Multi-head attention from reshape, transpose, getitem, matmul, mul,
    softmax nodes, as `nn.SelfAttention` (one (..., N, 3D) qkv) and
    `nn.CrossAttention` (a (..., N, D) q and a (..., M, 2D) kv) built it."""
    if len(packed) == 1:
        (qkv,) = packed
        *lead, n, width = qkv.shape
        d, nl = width // 3, len(lead)
        qkv = qkv.reshape(*lead, n, 3, heads, d // heads)
        qkv = qkv.transpose(nl + 1, *range(nl), nl + 2, nl, nl + 3)  # (3, ..., h, N, dh)
        return _attend(qkv[0], qkv[1], qkv[2], (d // heads) ** -0.5)
    q, kv = packed
    *lead, m, width = kv.shape
    d, nl = width // 2, len(lead)
    kv = kv.reshape(*lead, m, 2, heads, d // heads)
    kv = kv.transpose(nl + 1, *range(nl), nl + 2, nl, nl + 3)  # (2, ..., h, M, dh)
    return _attend(_split_heads(q, heads), kv[0], kv[1], (d // heads) ** -0.5)


# ---- the two-frame forward before its frames were batched -----------------------------


def forward_dvo_per_frame(model, image_a, image_b):
    """`forward_dvo` from unbatched calls: two encoder passes, and a decoder
    and depth-head pass per frame against the other frame."""
    grid_a = model.encode(image_a)
    grid_b = model.encode(image_b)
    depth_a = model.depth(grid_a, grid_b)
    depth_b = model.depth(grid_b, grid_a)
    twist = model.pose_head(grid_a.tokens, grid_b.tokens)
    return depth_a, depth_b, twist


# ---- the training hot path's kernels before they worked in place ----------------------


def layernorm_previous(t, gamma, beta):
    """`autodiff.layernorm` as it was: ``.mean`` reductions and a new array
    for each step of the arithmetic."""
    centred = t.data - t.data.mean(axis=-1, keepdims=True)
    std = np.sqrt((centred * centred).mean(axis=-1, keepdims=True) + 1e-5)
    normed = centred / std
    out = normed * gamma.data + beta.data

    def grad_fn(g):
        gn = g * gamma.data
        gt = (gn - gn.mean(axis=-1, keepdims=True) - normed * (gn * normed).mean(axis=-1, keepdims=True)) / std
        return gt, ad._unbroadcast(g * normed, gamma.shape), ad._unbroadcast(g, beta.shape)

    return Tensor._make(out, (t, gamma, beta), grad_fn, "layernorm")


def softmax_previous(x, axis):
    """`autodiff._softmax` as it was."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax_grad_previous(out, g, axis):
    """`autodiff._softmax_grad` as it was."""
    return out * (g - (g * out).sum(axis=axis, keepdims=True))


def tape_trace_previous(root):
    """The node order of `autodiff.Tape.trace` as it was: a stack of (node,
    expanded) entries, each node's parents pushed first to last."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    return order


def expand_reduced_previous(t, g, axis, keepdims):
    """`Tensor._expand_reduced` as it was, with the copy its callers took:
    the reduction's gradient `g` broadcast to `t`'s shape, then copied."""
    if axis is None or keepdims:
        return np.broadcast_to(g, t.shape).copy()
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    shape = list(t.shape)
    for ax in axes:
        shape[ax % t.ndim] = 1
    return np.broadcast_to(g.reshape(shape), t.shape).copy()


def adam_step_previous(opt, grads_by_name):
    """`optim.AdamW.step` as it was: new moment arrays each step."""
    opt.step_count += 1
    b1, b2, eps = 0.9, 0.999, 1e-8
    bc1, bc2 = 1.0 - b1**opt.step_count, 1.0 - b2**opt.step_count
    for name, p in opt.params:
        g = grads_by_name[name]
        m = opt._m[name] = b1 * opt._m[name] + (1.0 - b1) * g
        v = opt._v[name] = b2 * opt._v[name] + (1.0 - b2) * (g * g)
        p.data = p.data - opt.lr * ((m / bc1) / (np.sqrt(v / bc2) + eps))


def save_checkpoint_plain(path, arrays, config):
    """`model.save_checkpoint`'s bytes in format version 3, each field and
    array written on its own through ``tobytes()`` (without the temporary
    file and rename): each array's item size, then a float32 array in f4
    and every other in f8."""
    blob = json.dumps(config, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(model_module._MAGIC)
        f.write(struct.pack("<I", 3))
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for name in sorted(arrays):
            data = np.asarray(arrays[name])
            single = data.dtype in (np.dtype("<f4"), np.dtype(">f4"))
            data = np.asarray(data, order="C", dtype="<f4" if single else "<f8")  # a 0-d array keeps rank 0
            encoded = name.encode("utf-8")
            f.write(struct.pack("<I", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<I", data.itemsize))
            f.write(struct.pack("<I", data.ndim))
            f.write(struct.pack(f"<{data.ndim}I", *data.shape))
            f.write(data.tobytes())
        f.write(model_module._END_MAGIC)
        f.write(struct.pack("<I", len(arrays)))


def depth_metrics_previous(pred, gt, cap=10.0, median_scaling=True):
    """`evaluation.depth_metrics` as it was, as a tuple in `EvalReport`'s
    field order: the whole map median-scaled before indexing, and the
    ground truth's median taken twice."""
    valid = (gt >= 1e-3) & (gt <= cap)
    s = 1.0
    if median_scaling:
        s = float(np.median(gt[valid])) / float(np.median(pred[valid]))
        pred = pred * s
    p, g = pred[valid], gt[valid]
    abs_rel = float(np.mean(np.abs(p - g) / g))
    abs_rel_constant = float(np.mean(np.abs(np.median(g) - g) / g))
    rmse = float(np.sqrt(np.mean((p - g) ** 2)))
    ratio = np.maximum(p / g, g / p)
    d1, d2, d3 = (float(np.mean(ratio < 1.25**i)) for i in (1, 2, 3))
    return abs_rel, rmse, d1, d2, d3, int(valid.sum()), s, abs_rel_constant


# ---- the texture before its lattices were tabulated -----------------------------------


def _value_noise_previous(points, freq, salt):
    """Trilinearly interpolated lattice noise in [0, 1); C2-smooth fade.
    Hashes each of a point's eight corners for that point."""
    p = points * freq
    p0 = np.floor(p)
    f = synth_module._smootherstep(p - p0)
    i0 = p0.astype(np.int64)
    ix, iy, iz = i0[..., 0], i0[..., 1], i0[..., 2]

    def corner(dx, dy, dz):
        return synth_module._hash_to_unit(ix + dx, iy + dy, iz + dz, salt)

    fx, fy, fz = f[..., 0], f[..., 1], f[..., 2]
    c00 = corner(0, 0, 0) * (1 - fx) + corner(1, 0, 0) * fx
    c10 = corner(0, 1, 0) * (1 - fx) + corner(1, 1, 0) * fx
    c01 = corner(0, 0, 1) * (1 - fx) + corner(1, 0, 1) * fx
    c11 = corner(0, 1, 1) * (1 - fx) + corner(1, 1, 1) * fx
    c0 = c00 * (1 - fy) + c10 * fy
    c1 = c01 * (1 - fy) + c11 * fy
    return c0 * (1 - fz) + c1 * fz


def albedo_previous(points, seed):
    """`synth.albedo` as it was: value noise per channel and octave, each
    point hashing its own corners (72 hash calls per call)."""
    octaves, base_freq, gain = 3, 0.2, 0.5
    out = np.zeros(points.shape[:-1] + (3,))
    for ch in range(3):
        total, amp, freq, norm = 0.0, 1.0, base_freq, 0.0
        for oc in range(octaves):
            total = total + amp * _value_noise_previous(points, freq, seed * 7919 + ch * 131 + oc * 17)
            norm += amp
            amp *= gain
            freq *= 2.0
        out[..., ch] = total / norm
    return 0.03 + 0.94 * out

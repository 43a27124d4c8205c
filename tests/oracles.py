"""Independent reference implementations used to freeze expected test values.

Everything here is deliberately loop-based and separate from the library's
vectorized code paths, except the composites and the per-frame forward at
the end: the fused autodiff ops are checked against composites built from
primitive Tensor ops, and the batched two-frame forward against one built
from unbatched calls.
"""

import numpy as np

from dvokit import autodiff as ad
from dvokit.autodiff import Tensor

SSIM_C1 = 0.01**2
SSIM_C2 = 0.03**2


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
            term = patch.reshape(c, h * w).transpose(1, 0) @ weight[dy, dx]
            acc = term if acc is None else acc + term
    out = acc + bias  # (HW, c_out)
    return out.transpose(1, 0).reshape(c_out, h, w)


def conv3x3_up2_composite(x, weight, bias):
    """x2 nearest upsampling, then the 3x3 convolution at full resolution."""
    return ad.conv3x3(ad.upsample_nearest(x, 2), weight, bias)


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
    normed = centred / (var + eps).sqrt()
    return normed * gamma + beta


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
    return (num / den).mean(axis=0).clamp(-1.0, 1.0)


def bilinear_sample_composite(img, coords, tol):
    """Bilinear sampling from clamp, advanced-getitem and elementwise nodes.
    `tol` moves the cell choice as in the fused op, but the clamp stops the
    coordinate gradient right outside the image: the two agree unless a
    coordinate lies within `tol` outside it."""
    _, h, w = img.shape
    x = coords[..., 0].clamp(0.0, w - 1.0)
    y = coords[..., 1].clamp(0.0, h - 1.0)
    x0 = np.clip(np.floor(x.data + tol), 0, w - 2).astype(np.int64)
    y0 = np.clip(np.floor(y.data + tol), 0, h - 2).astype(np.int64)
    wx = x - Tensor(x0.astype(np.float64))
    wy = y - Tensor(y0.astype(np.float64))
    wx1 = 1.0 - wx
    top = img[:, y0, x0] * wx1 + img[:, y0, x0 + 1] * wx
    bot = img[:, y0 + 1, x0] * wx1 + img[:, y0 + 1, x0 + 1] * wx
    return top * (1.0 - wy) + bot * wy


def linear_composite(x, weight, bias):
    """An affine map from a matmul and an add node."""
    return x @ weight + bias


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
    attn = ad.softmax((q @ swap_last(k)) * scale, axis=-1)
    return _merge_heads(attn @ v)


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

"""Transformer building blocks on the in-house autodiff engine.

Constructors take a numpy Generator and draw their weights from it in
construction order, so one seed gives one set of initial weights.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


def _init(rng, shape, std=0.02):
    return rng.normal(0.0, std, size=shape)


class Module:
    """Minimal parameter container; submodules are discovered from attributes."""

    def named_parameters(self, prefix: str = ""):
        for name, value in vars(self).items():
            full = f"{prefix}{name}"
            if isinstance(value, Tensor):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(f"{full}.")


class ModuleList(Module):
    def __init__(self, modules):
        self._items = list(modules)

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __getitem__(self, i):
        return self._items[i]

    def named_parameters(self, prefix: str = ""):
        for i, module in enumerate(self._items):
            yield from module.named_parameters(f"{prefix}{i}.")


class Linear(Module):
    def __init__(self, in_dim, out_dim, rng, zero: bool = False):
        self.weight = ad.parameter(np.zeros((in_dim, out_dim)) if zero else _init(rng, (in_dim, out_dim)))
        self.bias = ad.parameter(np.zeros(out_dim))

    def __call__(self, x: Tensor) -> Tensor:
        return x @ self.weight + self.bias


class LayerNorm(Module):
    def __init__(self, dim, eps: float = 1e-5):
        self.gamma = ad.parameter(np.ones(dim))
        self.beta = ad.parameter(np.zeros(dim))
        self._eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        return ad.layernorm(x, self.gamma, self.beta, self._eps)


class Mlp(Module):
    def __init__(self, dim, hidden, rng):
        self.fc1 = Linear(dim, hidden, rng)
        self.fc2 = Linear(hidden, dim, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(self.fc1(x).gelu())


class AdaptMlp(Module):
    """Frozen-capable MLP with a parallel bottleneck branch.

    The branch (down-projection, ReLU, up-projection, fixed scale) adds to
    the plain MLP output. The up-projection starts at zero so the module is
    an exact no-op relative to the wrapped MLP at init.
    """

    def __init__(self, dim, hidden, bottleneck, scale, rng):
        self.mlp = Mlp(dim, hidden, rng)
        self.adapter_down = Linear(dim, bottleneck, rng)
        self.adapter_up = Linear(bottleneck, dim, rng, zero=True)
        self._scale = scale

    def __call__(self, x: Tensor) -> Tensor:
        return self.mlp(x) + self._scale * self.adapter_up(self.adapter_down(x).relu())


def _swap_last(x: Tensor) -> Tensor:
    """Swap the last two axes of a tensor of any rank."""
    lead = tuple(range(x.ndim - 2))
    return x.transpose(*lead, x.ndim - 1, x.ndim - 2)


def _split_heads(x: Tensor, heads: int) -> Tensor:
    """(..., N, D) -> (..., h, N, D/h)."""
    *lead, n, d = x.shape
    nl = len(lead)
    return x.reshape(*lead, n, heads, d // heads).transpose(*range(nl), nl + 1, nl, nl + 2)


def _merge_heads(x: Tensor) -> Tensor:
    """(..., h, N, dh) -> (..., N, h*dh)."""
    *lead, h, n, dh = x.shape
    nl = len(lead)
    return x.transpose(*range(nl), nl + 1, nl, nl + 2).reshape(*lead, n, h * dh)


def _attend(q: Tensor, k: Tensor, v: Tensor, scale: float) -> Tensor:
    """Scaled dot-product attention over (..., h, N, dh) heads, merged back
    to (..., N, D)."""
    attn = ad.softmax((q @ _swap_last(k)) * scale, axis=-1)
    return _merge_heads(attn @ v)


class SelfAttention(Module):
    """Multi-head self-attention over (..., N, D) tokens."""

    def __init__(self, dim, heads, rng):
        if dim % heads:
            raise ValueError("dim must be divisible by heads")
        self.qkv = Linear(dim, 3 * dim, rng)
        self.proj = Linear(dim, dim, rng)
        self._heads = heads
        self._scale = (dim // heads) ** -0.5

    def __call__(self, x: Tensor) -> Tensor:
        *lead, n, d = x.shape
        nl = len(lead)
        qkv = self.qkv(x).reshape(*lead, n, 3, self._heads, d // self._heads)
        qkv = qkv.transpose(nl + 1, *range(nl), nl + 2, nl, nl + 3)  # (3, ..., h, N, dh)
        return self.proj(_attend(qkv[0], qkv[1], qkv[2], self._scale))


class CrossAttention(Module):
    """Multi-head attention from (..., N, D) queries to (..., M, D) context."""

    def __init__(self, dim, heads, rng):
        if dim % heads:
            raise ValueError("dim must be divisible by heads")
        self.q = Linear(dim, dim, rng)
        self.kv = Linear(dim, 2 * dim, rng)
        self.proj = Linear(dim, dim, rng)
        self._heads = heads
        self._scale = (dim // heads) ** -0.5

    def __call__(self, x: Tensor, ctx: Tensor) -> Tensor:
        *lead, m, d = ctx.shape
        nl = len(lead)
        q = _split_heads(self.q(x), self._heads)
        kv = self.kv(ctx).reshape(*lead, m, 2, self._heads, d // self._heads)
        kv = kv.transpose(nl + 1, *range(nl), nl + 2, nl, nl + 3)  # (2, ..., h, M, dh)
        return self.proj(_attend(q, kv[0], kv[1], self._scale))


def _mlp_for(dim, hidden, adapter_dim, adapter_scale, rng):
    if adapter_dim > 0:
        return AdaptMlp(dim, hidden, adapter_dim, adapter_scale, rng)
    return Mlp(dim, hidden, rng)


class EncoderBlock(Module):
    """Pre-norm self-attention + MLP (optionally adapter-augmented)."""

    def __init__(self, dim, heads, rng, adapter_dim=0, adapter_scale=0.1, mlp_ratio=4):
        self.norm1 = LayerNorm(dim)
        self.attn = SelfAttention(dim, heads, rng)
        self.norm2 = LayerNorm(dim)
        self.mlp = _mlp_for(dim, mlp_ratio * dim, adapter_dim, adapter_scale, rng)

    def __call__(self, x: Tensor) -> Tensor:
        x = x + self.attn(self.norm1(x))
        return x + self.mlp(self.norm2(x))


class DecoderBlock(Module):
    """Pre-norm self-attention, cross-attention to the reference frame, MLP."""

    def __init__(self, dim, heads, rng, adapter_dim=0, adapter_scale=0.1, mlp_ratio=4):
        self.norm1 = LayerNorm(dim)
        self.attn = SelfAttention(dim, heads, rng)
        self.norm_q = LayerNorm(dim)
        self.norm_kv = LayerNorm(dim)
        self.cross = CrossAttention(dim, heads, rng)
        self.norm2 = LayerNorm(dim)
        self.mlp = _mlp_for(dim, mlp_ratio * dim, adapter_dim, adapter_scale, rng)

    def __call__(self, x: Tensor, ctx: Tensor) -> Tensor:
        x = x + self.attn(self.norm1(x))
        x = x + self.cross(self.norm_q(x), self.norm_kv(ctx))
        return x + self.mlp(self.norm2(x))


class Conv3x3(Module):
    """3x3 convolution on (..., C, H, W) maps, zero padded, stride 1.

    One ``ad.conv3x3`` node: an im2col GEMM forward and a col2im backward.
    """

    def __init__(self, c_in, c_out, rng):
        self.weight = ad.parameter(_init(rng, (3, 3, c_in, c_out)))
        self.bias = ad.parameter(np.zeros(c_out))

    def __call__(self, x: Tensor) -> Tensor:
        return ad.conv3x3(x, self.weight, self.bias)


class Conv1x1(Module):
    """Per-pixel projection of (..., C, H, W) maps."""

    def __init__(self, c_in, c_out, rng):
        self.weight = ad.parameter(_init(rng, (c_in, c_out)))
        self.bias = ad.parameter(np.zeros(c_out))
        self._c_out = c_out

    def __call__(self, x: Tensor) -> Tensor:
        *lead, c, h, w = x.shape
        out = _swap_last(x.reshape(*lead, c, h * w)) @ self.weight + self.bias
        return _swap_last(out).reshape(*lead, self._c_out, h, w)


class ResidualConvUnit(Module):
    def __init__(self, width, rng):
        self.conv1 = Conv3x3(width, width, rng)
        self.conv2 = Conv3x3(width, width, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return x + self.conv2(self.conv1(x.relu()).relu())


@lru_cache(maxsize=32)
def _posemb_cached(rows: int, cols: int, dim: int) -> bytes:
    if dim % 4:
        raise ValueError("positional embedding needs dim divisible by 4")

    def emb_1d(n_pos, d):
        omega = 1.0 / 10000.0 ** (np.arange(d // 2, dtype=np.float64) / (d / 2.0))
        angles = np.arange(n_pos, dtype=np.float64)[:, None] * omega[None]
        return np.concatenate([np.sin(angles), np.cos(angles)], axis=1)

    ey = emb_1d(rows, dim // 2)
    ex = emb_1d(cols, dim // 2)
    grid = np.zeros((rows, cols, dim))
    grid[..., : dim // 2] = ey[:, None, :]
    grid[..., dim // 2 :] = ex[None, :, :]
    return grid.reshape(rows * cols, dim).tobytes()


def posemb_2d(rows: int, cols: int, dim: int) -> np.ndarray:
    """Fixed 2D sine-cosine positional embedding, (rows*cols, dim)."""
    raw = _posemb_cached(rows, cols, dim)
    return np.frombuffer(raw, dtype=np.float64).reshape(rows * cols, dim).copy()

"""Transformer building blocks on the in-house autodiff engine.

Constructors take a numpy Generator and draw their weights from it in
construction order, so one seed gives one set of initial weights. Weights
are drawn in float64 and stored in DTYPE, float32: the layers compute in
their parameters' dtype, and a model whose parameters are cast to float64
computes in float64.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

DTYPE = np.float32


def _init(rng, shape):
    """Weights drawn from N(0, 0.02^2), rounded to DTYPE."""
    return rng.normal(0.0, 0.02, size=shape).astype(DTYPE)


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
    """Affine map of (..., in_dim) rows to (..., out_dim): one ``ad.linear``
    node. With ``zero`` the weight starts at zero."""

    def __init__(self, in_dim, out_dim, rng, zero: bool = False):
        self.weight = ad.parameter(np.zeros((in_dim, out_dim), DTYPE) if zero else _init(rng, (in_dim, out_dim)))
        self.bias = ad.parameter(np.zeros(out_dim, DTYPE))

    def __call__(self, x: Tensor) -> Tensor:
        return ad.linear(x, self.weight, self.bias)


class LayerNorm(Module):
    def __init__(self, dim):
        self.gamma = ad.parameter(np.ones(dim, DTYPE))
        self.beta = ad.parameter(np.zeros(dim, DTYPE))

    def __call__(self, x: Tensor) -> Tensor:
        return ad.layernorm(x, self.gamma, self.beta)


class Mlp(Module):
    def __init__(self, dim, hidden, rng):
        self.fc1 = Linear(dim, hidden, rng)
        self.fc2 = Linear(hidden, dim, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.gelu_linear(self.fc1(x), self.fc2.weight, self.fc2.bias)


class AdaptMlp(Module):
    """Frozen-capable MLP with a parallel bottleneck branch.

    The branch (down-projection, ReLU, up-projection, then a fixed scale of
    0.1, AdaptFormer's, arXiv 2205.13535) adds to the plain MLP output. The
    up-projection starts at zero so the module is an exact no-op relative to
    the wrapped MLP at init.
    """

    SCALE = 0.1

    def __init__(self, dim, hidden, bottleneck, rng):
        self.mlp = Mlp(dim, hidden, rng)
        self.adapter_down = Linear(dim, bottleneck, rng)
        self.adapter_up = Linear(bottleneck, dim, rng, zero=True)

    def __call__(self, x: Tensor) -> Tensor:
        return self.mlp(x) + self.SCALE * self.adapter_up(self.adapter_down(x).relu())


class SelfAttention(Module):
    """Multi-head self-attention over (..., N, D) tokens: the packed qkv
    projection, one ``ad.attention`` node and the output projection, three
    graph nodes."""

    def __init__(self, dim, heads, rng):
        self.qkv = Linear(dim, 3 * dim, rng)
        self.proj = Linear(dim, dim, rng)
        self._heads = heads

    def __call__(self, x: Tensor) -> Tensor:
        return self.proj(ad.attention(self.qkv(x), heads=self._heads))


class CrossAttention(Module):
    """Multi-head attention from (..., N, D) queries to (..., M, D) context:
    the q and packed kv projections, one ``ad.attention`` node and the
    output projection, four graph nodes."""

    def __init__(self, dim, heads, rng):
        self.q = Linear(dim, dim, rng)
        self.kv = Linear(dim, 2 * dim, rng)
        self.proj = Linear(dim, dim, rng)
        self._heads = heads

    def __call__(self, x: Tensor, ctx: Tensor) -> Tensor:
        return self.proj(ad.attention(self.q(x), self.kv(ctx), heads=self._heads))


def _mlp_for(dim, adapter_dim, rng):
    """A 4x wide MLP, with an adapter branch when `adapter_dim` > 0."""
    if adapter_dim > 0:
        return AdaptMlp(dim, 4 * dim, adapter_dim, rng)
    return Mlp(dim, 4 * dim, rng)


class EncoderBlock(Module):
    """Pre-norm self-attention + MLP (optionally adapter-augmented)."""

    def __init__(self, dim, heads, rng, adapter_dim):
        self.norm1 = LayerNorm(dim)
        self.attn = SelfAttention(dim, heads, rng)
        self.norm2 = LayerNorm(dim)
        self.mlp = _mlp_for(dim, adapter_dim, rng)

    def __call__(self, x: Tensor) -> Tensor:
        x = x + self.attn(self.norm1(x))
        return x + self.mlp(self.norm2(x))


class DecoderBlock(Module):
    """Pre-norm self-attention, cross-attention to the reference frame, MLP."""

    def __init__(self, dim, heads, rng, adapter_dim):
        self.norm1 = LayerNorm(dim)
        self.attn = SelfAttention(dim, heads, rng)
        self.norm_q = LayerNorm(dim)
        self.norm_kv = LayerNorm(dim)
        self.cross = CrossAttention(dim, heads, rng)
        self.norm2 = LayerNorm(dim)
        self.mlp = _mlp_for(dim, adapter_dim, rng)

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
        self.bias = ad.parameter(np.zeros(c_out, DTYPE))

    def __call__(self, x: Tensor) -> Tensor:
        return ad.conv3x3(x, self.weight, self.bias)


class ResidualConvUnit(Module):
    def __init__(self, width, rng):
        self.conv1 = Conv3x3(width, width, rng)
        self.conv2 = Conv3x3(width, width, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return x + self.conv2(self.conv1(x.relu()).relu())


@cache
def posemb_2d(rows: int, cols: int, dim: int, dtype=np.float64) -> np.ndarray:
    """Fixed 2D sine-cosine positional embedding, (rows*cols, dim), computed
    in float64 and stored in `dtype`; one read-only array per grid and
    dtype."""
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
    grid = grid.reshape(rows * cols, dim).astype(dtype, copy=False)
    grid.flags.writeable = False
    return grid

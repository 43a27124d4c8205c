"""Reverse-mode automatic differentiation over dense float64 arrays.

Every differentiable quantity in this package (losses, networks, warps) is a
``Tensor`` so gradients can be audited end to end against finite differences.
Arrays are numpy float64 throughout; broadcasting follows numpy's
trailing-dimension rules, and the image ops take leading batch axes
(``(..., C, H, W)``) the same way. An operand that does not require
gradients gets none computed. A global "checked" flag (on by default) traps
non-finite values and zero denominators as soon as they appear.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import erf as _erf

__all__ = [
    "Tensor",
    "Tape",
    "NonFiniteError",
    "EmptyValidSetError",
    "parameter",
    "concat",
    "stack",
    "where",
    "gather_hw",
    "row_scatter",
    "upsample_nearest",
    "conv3x3",
    "box3",
    "softmax",
    "layernorm",
    "masked_mean",
    "backward",
    "grads",
    "finite_diff_check",
    "checked_enabled",
    "checked",
]

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


class NonFiniteError(ArithmeticError):
    """An operation produced NaN or Inf while checked mode was enabled."""


class EmptyValidSetError(ValueError):
    """A reduction was asked to aggregate zero elements."""


_state = threading.local()


def checked_enabled() -> bool:
    return getattr(_state, "checked", True)


@contextmanager
def checked(flag: bool):
    """Temporarily enable/disable NaN/Inf trapping (e.g. off for benchmarks)."""
    prev = checked_enabled()
    _state.checked = bool(flag)
    try:
        yield
    finally:
        _state.checked = prev


def _verify_finite(data: np.ndarray, op: str) -> None:
    if checked_enabled() and not np.isfinite(data).all():
        raise NonFiniteError(f"non-finite value produced by op '{op}'")


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing trailing-dimension broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """Dense float64 array participating in reverse-mode differentiation.

    Gradients with respect to leaves created with ``requires_grad=True`` are
    returned by :func:`backward` and :func:`grads`; no tensor stores one.
    Tensors are treated as immutable after creation; optimizers update leaf
    ``.data`` only between graph constructions.
    """

    __slots__ = ("data", "requires_grad", "_parents", "_grad_fn", "op")

    def __init__(self, data, requires_grad: bool = False, *, _parents=(), _grad_fn=None, op="leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = _parents
        self._grad_fn = _grad_fn
        self.op = op

    # ---- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self.op!r}{flag})"

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of size {self.data.size}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """Constant view of the current values; gradients do not flow past it."""
        return Tensor(self.data)

    # ---- graph plumbing --------------------------------------------------------

    @staticmethod
    def _make(data, parents: Sequence["Tensor"], grad_fn, op: str) -> "Tensor":
        _verify_finite(np.asarray(data), op)
        if any(p.requires_grad for p in parents):
            return Tensor(data, requires_grad=True, _parents=tuple(parents), _grad_fn=grad_fn, op=op)
        return Tensor(data, op=op)

    # ---- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        a, b = self, _as_tensor(other)
        out = a.data + b.data

        def grad_fn(g):
            ga = _unbroadcast(g, a.shape) if a.requires_grad else None
            return ga, _unbroadcast(g, b.shape) if b.requires_grad else None

        return Tensor._make(out, (a, b), grad_fn, "add")

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self, _as_tensor(other)
        out = a.data - b.data

        def grad_fn(g):
            ga = _unbroadcast(g, a.shape) if a.requires_grad else None
            return ga, _unbroadcast(-g, b.shape) if b.requires_grad else None

        return Tensor._make(out, (a, b), grad_fn, "sub")

    def __rsub__(self, other):
        return _as_tensor(other).__sub__(self)

    def __mul__(self, other):
        a, b = self, _as_tensor(other)
        out = a.data * b.data

        def grad_fn(g):
            ga = _unbroadcast(g * b.data, a.shape) if a.requires_grad else None
            return ga, _unbroadcast(g * a.data, b.shape) if b.requires_grad else None

        return Tensor._make(out, (a, b), grad_fn, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self, _as_tensor(other)
        if checked_enabled() and np.any(b.data == 0.0):
            raise ZeroDivisionError("division with zero denominator")
        out = a.data / b.data

        def grad_fn(g):
            ga = _unbroadcast(g / b.data, a.shape) if a.requires_grad else None
            if not b.requires_grad:
                return ga, None
            return ga, _unbroadcast(-g * a.data / (b.data * b.data), b.shape)

        return Tensor._make(out, (a, b), grad_fn, "div")

    def __rtruediv__(self, other):
        return _as_tensor(other).__truediv__(self)

    def __neg__(self):
        a = self
        return Tensor._make(-a.data, (a,), lambda g: (-g,), "neg")

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        a, c = self, float(exponent)
        out = a.data**c

        def grad_fn(g):
            return (g * c * a.data ** (c - 1.0),)

        return Tensor._make(out, (a,), grad_fn, "pow")

    def __matmul__(self, other):
        a, b = self, _as_tensor(other)
        if a.ndim < 2 or b.ndim < 2:
            raise ValueError("matmul operands must have rank >= 2")
        if a.shape[-1] != b.shape[-2]:
            raise ValueError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
        out = a.data @ b.data

        def grad_fn(g):
            ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape) if a.requires_grad else None
            if not b.requires_grad:
                return ga, None
            if b.ndim == 2:  # a weight: one GEMM over every leading row of `a`
                return ga, a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            return ga, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)

        return Tensor._make(out, (a, b), grad_fn, "matmul")

    # ---- pointwise functions ----------------------------------------------------

    def exp(self):
        a = self
        out = np.exp(a.data)
        return Tensor._make(out, (a,), lambda g: (g * out,), "exp")

    def sqrt(self):
        a = self
        out = np.sqrt(a.data)
        return Tensor._make(out, (a,), lambda g: (g / (2.0 * out),), "sqrt")

    def abs(self):
        a = self
        # subgradient at 0 is 0 (np.sign(0) == 0)
        return Tensor._make(np.abs(a.data), (a,), lambda g: (g * np.sign(a.data),), "abs")

    def clamp(self, lo=None, hi=None):
        """Clamp values; gradient passes inside [lo, hi], zero outside."""
        a = self
        out = np.clip(a.data, lo, hi)
        inside = np.ones_like(a.data)
        if lo is not None:
            inside = inside * (a.data >= lo)
        if hi is not None:
            inside = inside * (a.data <= hi)
        return Tensor._make(out, (a,), lambda g: (g * inside,), "clamp")

    def sin(self):
        a = self
        return Tensor._make(np.sin(a.data), (a,), lambda g: (g * np.cos(a.data),), "sin")

    def cos(self):
        a = self
        return Tensor._make(np.cos(a.data), (a,), lambda g: (-g * np.sin(a.data),), "cos")

    def sigmoid(self):
        a = self
        with np.errstate(over="ignore"):  # exp overflow saturates correctly
            out = 1.0 / (1.0 + np.exp(-a.data))
        return Tensor._make(out, (a,), lambda g: (g * out * (1.0 - out),), "sigmoid")

    def relu(self):
        a = self
        return Tensor._make(np.maximum(a.data, 0.0), (a,), lambda g: (g * (a.data > 0.0),), "relu")

    def gelu(self):
        """Exact (erf-based) GELU."""
        a = self
        cdf = 0.5 * (1.0 + _erf(a.data * _INV_SQRT2))
        out = a.data * cdf

        def grad_fn(g):
            pdf = np.exp(-0.5 * a.data * a.data) * _INV_SQRT2PI
            return (g * (cdf + a.data * pdf),)

        return Tensor._make(out, (a,), grad_fn, "gelu")

    # ---- reductions ---------------------------------------------------------------

    def _reduce_count(self, axis) -> int:
        if axis is None:
            return self.data.size
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        n = 1
        for ax in axes:
            n *= self.data.shape[ax]
        return n

    def _expand_reduced(self, g, axis, keepdims):
        if axis is None or keepdims:
            return np.broadcast_to(g, self.shape)
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        shape = list(self.shape)
        for ax in axes:
            shape[ax % self.ndim] = 1
        return np.broadcast_to(g.reshape(shape), self.shape)

    def sum(self, axis=None, keepdims: bool = False):
        a = self
        if a._reduce_count(axis) == 0:
            raise EmptyValidSetError("empty-valid-set")
        out = a.data.sum(axis=axis, keepdims=keepdims)

        def grad_fn(g):
            return (a._expand_reduced(np.asarray(g), axis, keepdims).copy(),)

        return Tensor._make(out, (a,), grad_fn, "sum")

    def mean(self, axis=None, keepdims: bool = False):
        a = self
        n = a._reduce_count(axis)
        if n == 0:
            raise EmptyValidSetError("empty-valid-set")
        out = a.data.mean(axis=axis, keepdims=keepdims)

        def grad_fn(g):
            return (a._expand_reduced(np.asarray(g) / n, axis, keepdims).copy(),)

        return Tensor._make(out, (a,), grad_fn, "mean")

    # ---- shape manipulation ----------------------------------------------------------

    def reshape(self, *shape):
        a = self
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = a.data.reshape(shape)
        return Tensor._make(out, (a,), lambda g: (g.reshape(a.shape),), "reshape")

    def transpose(self, *axes):
        a = self
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(a.ndim)))
        inv = np.argsort(axes)
        out = a.data.transpose(axes)
        return Tensor._make(out, (a,), lambda g: (g.transpose(inv),), "transpose")

    def __getitem__(self, idx):
        a = self
        if not isinstance(idx, tuple):
            idx = (idx,)
        out = a.data[idx]
        advanced = any(isinstance(i, (np.ndarray, list)) for i in idx)

        def grad_fn(g):
            gx = np.zeros_like(a.data)
            if advanced:
                np.add.at(gx, idx, g)
            else:
                gx[idx] += g
            return (gx,)

        return Tensor._make(out, (a,), grad_fn, "getitem")


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def parameter(data) -> Tensor:
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


# ---- multi-input / structural ops -----------------------------------------------


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def grad_fn(g):
        slicer = [slice(None)] * g.ndim
        gs = []
        for i in range(len(parts)):
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            gs.append(g[tuple(slicer)])
        return tuple(gs)

    return Tensor._make(out, tuple(parts), grad_fn, "concat")


def stack(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    out = np.stack([p.data for p in parts], axis=axis)

    def grad_fn(g):
        return tuple(np.take(g, i, axis=axis) for i in range(len(parts)))

    return Tensor._make(out, tuple(parts), grad_fn, "stack")


def where(cond: np.ndarray, a, b) -> Tensor:
    """Select elementwise by a constant boolean mask; gradients follow the branch."""
    cond = np.asarray(cond, dtype=bool)
    ta, tb = _as_tensor(a), _as_tensor(b)
    out = np.where(cond, ta.data, tb.data)

    def grad_fn(g):
        ga = _unbroadcast(g * cond, ta.shape) if ta.requires_grad else None
        return ga, _unbroadcast(g * ~cond, tb.shape) if tb.requires_grad else None

    return Tensor._make(out, (ta, tb), grad_fn, "where")


def gather_hw(img: Tensor, iy: np.ndarray, ix: np.ndarray) -> Tensor:
    """Gather pixels of a (C, H, W) tensor at integer index maps (no bounds wrap)."""
    img = _as_tensor(img)
    if img.ndim != 3:
        raise ValueError("gather_hw expects a (C, H, W) tensor")
    iy = np.asarray(iy, dtype=np.int64)
    ix = np.asarray(ix, dtype=np.int64)
    out = img.data[:, iy, ix]
    c_idx = np.arange(img.shape[0]).reshape((-1,) + (1,) * iy.ndim)

    def grad_fn(g):
        gx = np.zeros_like(img.data)
        np.add.at(gx, (c_idx, iy[None], ix[None]), g)
        return (gx,)

    return Tensor._make(out, (img,), grad_fn, "gather_hw")


def row_scatter(base: Tensor, idx: np.ndarray, rows: Tensor) -> Tensor:
    """Copy `base` (..., N, d) with rows at `idx` (on axis -2) replaced by
    `rows` (..., K, d)."""
    base, rows = _as_tensor(base), _as_tensor(rows)
    idx = np.asarray(idx, dtype=np.int64)
    out = base.data.copy()
    out[..., idx, :] = rows.data

    def grad_fn(g):
        gb = g.copy()
        gb[..., idx, :] = 0.0
        return gb, g[..., idx, :]

    return Tensor._make(out, (base, rows), grad_fn, "row_scatter")


def upsample_nearest(t: Tensor, factor: int) -> Tensor:
    """Nearest-neighbor upsample of a (..., C, H, W) tensor by an integer factor."""
    t = _as_tensor(t)
    if t.ndim < 3:
        raise ValueError("upsample_nearest expects a (..., C, H, W) tensor")
    k = int(factor)
    out = np.repeat(np.repeat(t.data, k, axis=-2), k, axis=-1)
    *lead, h, w = t.shape

    def grad_fn(g):
        return (g.reshape(*lead, h, k, w, k).sum(axis=(-3, -1)),)

    return Tensor._make(out, (t,), grad_fn, "upsample_nearest")


def conv3x3(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """3x3 convolution of a (..., C, H, W) map, zero padded, stride 1.

    `weight` is (3, 3, C, C_out) and `bias` is (C_out,). The forward pass is
    one GEMM over the im2col rows of every map in the batch. The backward
    pass keeps only the padded input, not the nine times larger im2col
    matrix: it rebuilds each tap's rows from it for that tap's weight
    gradient GEMM, and folds each tap's column gradient back onto the input
    (col2im) one tap at a time.
    """
    x, weight, bias = _as_tensor(x), _as_tensor(weight), _as_tensor(bias)
    if x.ndim < 3:
        raise ValueError("conv3x3 expects a (..., C, H, W) tensor")
    *lead, c, h, w = x.shape
    if weight.ndim != 4 or weight.shape[:3] != (3, 3, c):
        raise ValueError(f"conv3x3 weight must be (3, 3, {c}, C_out), got {weight.shape}")
    c_out = weight.shape[3]
    if bias.shape != (c_out,):
        raise ValueError(f"conv3x3 bias must be ({c_out},), got {bias.shape}")
    n = math.prod(lead)
    # channel-major layout (C, n, H, W): each tap's rows are then one
    # contiguous (C, n*H*W) block of the im2col matrix
    xp = np.zeros((c, n, h + 2, w + 2))
    xp[:, :, 1 : h + 1, 1 : w + 1] = x.data.reshape(n, c, h, w).transpose(1, 0, 2, 3)

    def tap_rows(k: int) -> np.ndarray:
        dy, dx = divmod(k, 3)
        return xp[:, :, dy : dy + h, dx : dx + w].reshape(c, n * h * w)

    cols = np.concatenate([tap_rows(k) for k in range(9)])
    w2 = weight.data.reshape(9 * c, c_out)
    out = (w2.T @ cols + bias.data[:, None]).reshape(c_out, n, h, w)
    del cols
    out = out.transpose(1, 0, 2, 3).reshape(*lead, c_out, h, w)

    def grad_fn(g):
        g2 = g.reshape(n, c_out, h * w).transpose(1, 0, 2).reshape(c_out, n * h * w)
        gxp = np.zeros((c, n, h + 2, w + 2))
        gw = np.empty((9, c, c_out))
        for k in range(9):
            dy, dx = divmod(k, 3)
            gw[k] = tap_rows(k) @ g2.T
            gxp[:, :, dy : dy + h, dx : dx + w] += (w2[k * c : (k + 1) * c] @ g2).reshape(c, n, h, w)
        gx = gxp[:, :, 1 : h + 1, 1 : w + 1].transpose(1, 0, 2, 3).reshape(*lead, c, h, w)
        return gx, gw.reshape(weight.shape), g2.sum(axis=1)

    return Tensor._make(out, (x, weight, bias), grad_fn, "conv3x3")


def box3(img: Tensor) -> Tensor:
    """3x3 box filter of a (C, H, W) tensor with edge replication; the output
    keeps the input size."""
    img = _as_tensor(img)
    if img.ndim != 3:
        raise ValueError("box3 expects a (C, H, W) tensor")
    c, h, w = img.shape
    p = np.pad(img.data, ((0, 0), (1, 1), (1, 1)), mode="edge")
    acc = p[:, 0:h, 0:w]
    for k in range(1, 9):
        dy, dx = divmod(k, 3)
        acc = acc + p[:, dy : dy + h, dx : dx + w]
    out = acc * (1.0 / 9.0)

    def grad_fn(g):
        g9 = g * (1.0 / 9.0)
        gp = np.zeros((c, h + 2, w + 2))
        for k in range(9):
            dy, dx = divmod(k, 3)
            gp[:, dy : dy + h, dx : dx + w] += g9
        # replicated border rows, then columns, fold back onto the edge pixels
        gp[:, 1, :] += gp[:, 0, :]
        gp[:, h, :] += gp[:, h + 1, :]
        gp[:, :, 1] += gp[:, :, 0]
        gp[:, :, w] += gp[:, :, w + 1]
        return (gp[:, 1 : h + 1, 1 : w + 1],)

    return Tensor._make(out, (img,), grad_fn, "box3")


def softmax(t: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax; the max shift is treated as a constant."""
    t = _as_tensor(t)
    e = np.exp(t.data - t.data.max(axis=axis, keepdims=True))
    out = e / e.sum(axis=axis, keepdims=True)

    def grad_fn(g):
        return (out * (g - (g * out).sum(axis=axis, keepdims=True)),)

    return Tensor._make(out, (t,), grad_fn, "softmax")


def layernorm(t: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis with learnable scale and shift."""
    t, gamma, beta = _as_tensor(t), _as_tensor(gamma), _as_tensor(beta)
    centred = t.data - t.data.mean(axis=-1, keepdims=True)
    std = np.sqrt((centred * centred).mean(axis=-1, keepdims=True) + eps)
    normed = centred / std
    out = normed * gamma.data + beta.data

    def grad_fn(g):
        gn = g * gamma.data
        gt = (
            gn
            - gn.mean(axis=-1, keepdims=True)
            - normed * (gn * normed).mean(axis=-1, keepdims=True)
        ) / std
        return gt, _unbroadcast(g * normed, gamma.shape), _unbroadcast(g, beta.shape)

    return Tensor._make(out, (t, gamma, beta), grad_fn, "layernorm")


def masked_mean(t: Tensor, mask: np.ndarray) -> Tensor:
    """Mean over elements selected by a constant boolean mask.

    Raises EmptyValidSetError when the mask selects nothing.
    """
    mask = np.asarray(mask, dtype=bool)
    return t[mask].mean()


# ---- backward pass ------------------------------------------------------------------


class Tape:
    """Topologically ordered record of the ops reachable from a root tensor.

    The order is a valid execution order (parents before consumers); walking
    it in reverse visits every op exactly once during backpropagation.
    """

    __slots__ = ("nodes",)

    def __init__(self, nodes: list[Tensor]):
        self.nodes = nodes

    @classmethod
    def trace(cls, root: Tensor) -> "Tape":
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
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
        return cls(order)


def backward(loss: Tensor) -> dict[int, np.ndarray]:
    """Backpropagate from a scalar loss.

    Returns the gradient of every requires-grad leaf the loss reaches, keyed
    by ``id(leaf)``; leaves it does not reach are absent.
    """
    if loss.data.size != 1:
        raise ValueError("backward requires a scalar loss")
    if not loss.requires_grad:
        raise ValueError("loss does not require grad; nothing to backpropagate")
    tape = Tape.trace(loss)
    flow: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    leaf_grads: dict[int, np.ndarray] = {}
    for node in reversed(tape.nodes):
        g = flow.pop(id(node), None)
        if g is None:
            continue
        if node._grad_fn is None:
            leaf_grads[id(node)] = np.array(g)
            continue
        for parent, pg in zip(node._parents, node._grad_fn(g)):
            if pg is None or not parent.requires_grad:
                continue
            key = id(parent)
            # accumulation is pure (never in place): grad functions may
            # hand out views or shared arrays for sibling parents
            flow[key] = flow[key] + pg if key in flow else pg
    return leaf_grads


def grads(loss: Tensor, wrt: Iterable[Tensor]) -> list[np.ndarray]:
    """Gradients of a scalar loss w.r.t. the given leaves, in order; zeros
    for a leaf the loss does not reach."""
    found = backward(loss)
    return [found.get(id(t), np.zeros_like(t.data)) for t in wrt]


def finite_diff_check(
    f: Callable[[Tensor], Tensor],
    x: np.ndarray | Tensor,
    h: float = 1e-5,
    max_coords: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Compare the analytic gradient of scalar ``f(x)`` with central differences.

    Returns the maximum over checked coordinates of
    ``|analytic - numeric| / max(1, |analytic|, |numeric|)``.
    ``f`` must be deterministic and scalar-valued. When ``max_coords`` is set,
    a seeded random subset of coordinates is checked (used for large inputs).
    """
    x0 = np.array(x.data if isinstance(x, Tensor) else x, dtype=np.float64)
    leaf = Tensor(x0.copy(), requires_grad=True)
    analytic = grads(f(leaf), [leaf])[0].reshape(-1)

    coords = np.arange(x0.size)
    if max_coords is not None and max_coords < x0.size:
        rng = rng or np.random.default_rng(0)
        coords = rng.choice(x0.size, size=max_coords, replace=False)
        coords.sort()

    worst = 0.0
    flat = x0.reshape(-1)
    for i in coords:
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

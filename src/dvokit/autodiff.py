"""Reverse-mode automatic differentiation over dense float64 arrays.

Every differentiable quantity in this package (losses, networks, warps) is a
``Tensor`` so gradients can be audited end to end against finite differences.
Arrays are numpy float64 throughout; broadcasting follows numpy's
trailing-dimension rules, and the conv and upsample ops take leading batch
axes (``(..., C, H, W)``) the same way. An operand that does not require
gradients gets none computed. A per-thread "checked" flag (on by default)
traps non-finite values and zero denominators as soon as they appear, and
inside ``no_grad()`` ops record no graph.

Checked mode by replay, as training steps, evaluation forwards and direct
iterations run: ``replayed(fn, tested)`` runs ``fn()`` unchecked with
numpy's floating-point warnings off and tests the arrays ``tested(result)``
names for finiteness once. If that pass raised anything or left a tested
array non-finite, ``fn()`` runs again checked under the caller's
``np.errstate``: the checked path exactly, so it raises what a checked run
raises, naming the op. A non-finite array that the checked replay does not
trap (a gradient) raises ``NonFiniteError`` naming it.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

import numpy as np
from scipy.special import erf as _erf

__all__ = [
    "Tensor",
    "Tape",
    "NonFiniteError",
    "EmptyValidSetError",
    "parameter",
    "concat",
    "where",
    "row_scatter",
    "upsample_nearest",
    "conv3x3",
    "conv3x3_up2",
    "ssim",
    "bilinear_sample",
    "softmax",
    "linear",
    "attention",
    "layernorm",
    "backward",
    "grads",
    "finite_diff_check",
    "checked_enabled",
    "checked",
    "no_grad",
    "replayed",
]

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


class NonFiniteError(ArithmeticError):
    """An operation produced NaN or Inf while checked mode was enabled."""


class EmptyValidSetError(ValueError):
    """A reduction was asked to aggregate zero elements."""


class _ThreadState(threading.local):
    checked = True  # trap non-finite values
    grad = True  # record the graph


_state = _ThreadState()


def checked_enabled() -> bool:
    return _state.checked


@contextmanager
def checked(flag: bool):
    """Temporarily enable/disable NaN/Inf trapping (``replayed`` turns it
    off for a first pass and on for a replay)."""
    prev = _state.checked
    _state.checked = bool(flag)
    try:
        yield
    finally:
        _state.checked = prev


@contextmanager
def no_grad():
    """Record no graph in this thread: every op result is a constant (no
    parents, ``requires_grad`` False), so nothing it was computed from is
    kept alive by it. Values are unchanged and checked mode still traps."""
    prev = _state.grad
    _state.grad = False
    try:
        yield
    finally:
        _state.grad = prev


_Result = TypeVar("_Result")


def replayed(fn: Callable[[], _Result], tested: Callable[[_Result], Mapping[str, np.ndarray]]) -> _Result:
    """``fn()`` run unchecked, replayed checked if it failed (module docstring).

    ``tested(result)`` maps a description to each array that must be finite.
    ``fn`` must compute the same on each call, so it restores any state it
    consumes, such as an rng, first. Any error of the first pass is replayed,
    since a NaN can surface as another error (``EmptyValidSetError``); if
    the replay raises nothing and leaves every array finite, that error is
    raised again.
    """
    try:
        with checked(False), np.errstate(all="ignore"):
            result = fn()
        if all(np.isfinite(value).all() for value in tested(result).values()):
            return result
        first_error = None
    except Exception as error:  # any failure of the first pass is replayed
        first_error = error
    with checked(True):
        result = fn()
    for name, value in tested(result).items():
        if not np.isfinite(value).all():
            raise NonFiniteError(f"non-finite {name}, which checked mode does not trap")
    if first_error is not None:
        raise first_error
    return result


def _verify_finite(data: np.ndarray, op: str) -> None:
    if not np.isfinite(data).all():
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
        if _state.checked:
            _verify_finite(np.asarray(data), op)
        if _state.grad and any(p.requires_grad for p in parents):
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

    def clamp(self, lo, hi):
        """Clamp values; gradient passes inside [lo, hi], zero outside."""
        a = self
        out = np.clip(a.data, lo, hi)
        inside = (a.data >= lo) & (a.data <= hi)
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
        # in place, in the order of 0.5 * (1 + erf(x / sqrt 2)) and
        # g * (cdf + x * exp(-0.5 * x * x) / sqrt(2 pi))
        cdf = a.data * _INV_SQRT2
        _erf(cdf, out=cdf)
        cdf += 1.0
        cdf *= 0.5
        out = a.data * cdf

        def grad_fn(g):
            d = a.data * -0.5
            d *= a.data
            np.exp(d, out=d)
            d *= _INV_SQRT2PI
            d *= a.data
            d += cdf
            d *= g
            return (d,)

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
        # integer arrays can repeat an element, which only np.add.at sums;
        # slices and boolean masks pick each at most once
        repeats = any(isinstance(i, list) or (isinstance(i, np.ndarray) and i.dtype != bool) for i in idx)

        def grad_fn(g):
            gx = np.zeros_like(a.data)
            if repeats:
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


def where(cond: np.ndarray, a, b) -> Tensor:
    """Select elementwise by a constant boolean mask; gradients follow the branch."""
    cond = np.asarray(cond, dtype=bool)
    ta, tb = _as_tensor(a), _as_tensor(b)
    out = np.where(cond, ta.data, tb.data)

    def grad_fn(g):
        ga = _unbroadcast(g * cond, ta.shape) if ta.requires_grad else None
        return ga, _unbroadcast(g * ~cond, tb.shape) if tb.requires_grad else None

    return Tensor._make(out, (ta, tb), grad_fn, "where")


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


def _conv_operands(op: str, x, weight, bias):
    """Tensors and sizes of a 3x3 conv call: (x, weight, bias, lead, c, h, w, c_out)."""
    x, weight, bias = _as_tensor(x), _as_tensor(weight), _as_tensor(bias)
    if x.ndim < 3:
        raise ValueError(f"{op} expects a (..., C, H, W) tensor")
    *lead, c, h, w = x.shape
    if weight.ndim != 4 or weight.shape[:3] != (3, 3, c):
        raise ValueError(f"{op} weight must be (3, 3, {c}, C_out), got {weight.shape}")
    c_out = weight.shape[3]
    if bias.shape != (c_out,):
        raise ValueError(f"{op} bias must be ({c_out},), got {bias.shape}")
    return x, weight, bias, lead, c, h, w, c_out


def _pad_channel_major(x: np.ndarray, n: int, c: int, h: int, w: int) -> np.ndarray:
    """(..., C, h, w) maps zero padded by one pixel into the channel-major
    layout (C, n, h+2, w+2): each tap's rows are then one contiguous
    (C, n*h*w) block of the im2col matrix."""
    xp = np.zeros((c, n, h + 2, w + 2))
    xp[:, :, 1 : h + 1, 1 : w + 1] = x.reshape(n, c, h, w).transpose(1, 0, 2, 3)
    return xp


def _unpad_channel_major(gxp: np.ndarray, lead, c: int, h: int, w: int) -> np.ndarray:
    return gxp[:, :, 1 : h + 1, 1 : w + 1].transpose(1, 0, 2, 3).reshape(*lead, c, h, w)


def _tap_rows(xp: np.ndarray, dy: int, dx: int, h: int, w: int) -> np.ndarray:
    c, n = xp.shape[:2]
    return xp[:, :, dy : dy + h, dx : dx + w].reshape(c, n * h * w)


def _taps_forward(xp: np.ndarray, w2: np.ndarray, taps, h: int, w: int) -> np.ndarray:
    """(n, C_out, h*w): `w2` (len(taps)*C, C_out) applied to the im2col rows
    of the padded maps read at the (dy, dx) offsets `taps`, one GEMM per map.
    Each map's output is then the same, bit for bit, whatever else is in the
    batch: one GEMM over all maps can change BLAS kernel with the batch size
    (OpenBLAS takes its small-matrix kernel below about 1e6 multiply-adds),
    and with it the rounding."""
    cols = np.concatenate([_tap_rows(xp, dy, dx, h, w) for dy, dx in taps])
    return w2.T @ cols.reshape(len(cols), xp.shape[1], h * w).transpose(1, 0, 2)


def _taps_backward(xp, w2, taps, g2: np.ndarray, gxp: np.ndarray, h: int, w: int) -> np.ndarray:
    """Backward of `_taps_forward` for the output gradient g2 (C_out, n*h*w):
    returns the weight gradient (len(taps), C, C_out) and adds the input
    gradient into the padded `gxp` (col2im), one tap at a time."""
    c, n = xp.shape[:2]
    gw = np.empty((len(taps), c, w2.shape[1]))
    for k, (dy, dx) in enumerate(taps):
        gw[k] = _tap_rows(xp, dy, dx, h, w) @ g2.T
        gxp[:, :, dy : dy + h, dx : dx + w] += (w2[k * c : (k + 1) * c] @ g2).reshape(c, n, h, w)
    return gw


_TAPS_3X3 = [divmod(k, 3) for k in range(9)]


def conv3x3(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """3x3 convolution of a (..., C, H, W) map, zero padded, stride 1.

    `weight` is (3, 3, C, C_out) and `bias` is (C_out,). The forward pass is
    one GEMM per map over its im2col rows. The backward pass keeps only the
    padded input, not the nine times larger im2col matrix: it rebuilds each
    tap's rows from it for that tap's weight gradient GEMM, and folds each
    tap's column gradient back onto the input (col2im) one tap at a time.
    """
    x, weight, bias, lead, c, h, w, c_out = _conv_operands("conv3x3", x, weight, bias)
    n = math.prod(lead)
    xp = _pad_channel_major(x.data, n, c, h, w)
    w2 = weight.data.reshape(9 * c, c_out)
    out = (_taps_forward(xp, w2, _TAPS_3X3, h, w) + bias.data[:, None]).reshape(*lead, c_out, h, w)

    def grad_fn(g):
        g2 = g.reshape(n, c_out, h * w).transpose(1, 0, 2).reshape(c_out, n * h * w)
        gxp = np.zeros_like(xp)
        gw = _taps_backward(xp, w2, _TAPS_3X3, g2, gxp, h, w)
        return _unpad_channel_major(gxp, lead, c, h, w), gw.reshape(weight.shape), g2.sum(axis=1)

    return Tensor._make(out, (x, weight, bias), grad_fn, "conv3x3")


# A x2 nearest upsample followed by a 3x3 tap reads, for output row 2r + p,
# coarse rows r - 1 + p + t (t = 0, 1) only. _UP2_FOLD_1D[p][t] marks the
# 3x3 kernel rows that land on coarse row t of phase p; the Kronecker product
# of a row and a column phase folds the (9, ...) kernel onto that phase's
# 2x2 kernel. Rows of _UP2_FOLD are (phase row, phase column, tap row, tap
# column), columns the nine 3x3 taps; _UP2_PHASES lists each phase with the
# offsets its taps read in the padded coarse map, in the same order.
_UP2_FOLD_1D = np.array([[[1, 0, 0], [0, 1, 1]], [[1, 1, 0], [0, 0, 1]]], dtype=np.float64)
_UP2_FOLD = np.concatenate([np.kron(fy, fx) for fy in _UP2_FOLD_1D for fx in _UP2_FOLD_1D])
_UP2_PHASES = [
    ((py, px), [(py + ty, px + tx) for ty in (0, 1) for tx in (0, 1)]) for py in (0, 1) for px in (0, 1)
]


def conv3x3_up2(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """``conv3x3(upsample_nearest(x, 2), weight, bias)``, computed on the
    coarse map: a (..., C, H, W) input gives (..., C_out, 2H, 2W).

    Each of the four output phases (row and column parity) is a 2x2
    convolution of the zero-padded coarse map, whose kernel is the 3x3
    kernel folded onto the coarse pixels its taps read (sub-pixel
    convolution, arXiv 1609.05158). One im2col GEMM per phase and map
    writes that phase's strided slots of the output: 4 instead of 9
    multiply-adds per output pixel and channel pair, and neither the
    upsampled map nor its im2col matrix is built. The backward pass keeps only the padded coarse
    input, as `conv3x3` does, and folds the phase-kernel gradients back onto
    the 3x3 weight.
    """
    x, weight, bias, lead, c, h, w, c_out = _conv_operands("conv3x3_up2", x, weight, bias)
    n = math.prod(lead)
    xp = _pad_channel_major(x.data, n, c, h, w)
    kernels = (_UP2_FOLD @ weight.data.reshape(9, c * c_out)).reshape(4, 4 * c, c_out)
    out = np.empty((n, c_out, 2 * h, 2 * w))
    for ((py, px), taps), k2 in zip(_UP2_PHASES, kernels):
        phase = _taps_forward(xp, k2, taps, h, w) + bias.data[:, None]
        out[:, :, py::2, px::2] = phase.reshape(n, c_out, h, w)

    def grad_fn(g):
        g = g.reshape(n, c_out, 2 * h, 2 * w)
        # one copy into (phase row, phase column, C_out, n, H, W), so each
        # phase's (C_out, n*H*W) gradient is a contiguous block
        phases = g.reshape(n, c_out, h, 2, w, 2).transpose(3, 5, 1, 0, 2, 4).copy()
        gxp = np.zeros_like(xp)
        gk = np.empty((4, 4, c, c_out))
        for i, (((py, px), taps), k2) in enumerate(zip(_UP2_PHASES, kernels)):
            g2 = phases[py, px].reshape(c_out, n * h * w)
            gk[i] = _taps_backward(xp, k2, taps, g2, gxp, h, w)
        gw = _UP2_FOLD.T @ gk.reshape(16, c * c_out)
        return _unpad_channel_major(gxp, lead, c, h, w), gw.reshape(weight.shape), g.sum(axis=(0, 2, 3))

    return Tensor._make(out.reshape(*lead, c_out, 2 * h, 2 * w), (x, weight, bias), grad_fn, "conv3x3_up2")


def _box3(x: np.ndarray) -> np.ndarray:
    """3x3 box mean over the last two axes, edge replicated; the taps are
    summed row by row. It is its own adjoint (each axis's edge-replicated
    3-sum is a symmetric matrix)."""
    h, w = x.shape[-2:]
    p = np.concatenate([x[..., :1, :], x, x[..., -1:, :]], axis=-2)
    p = np.concatenate([p[..., :1], p, p[..., -1:]], axis=-1)
    acc = p[..., 0:h, 0:w].copy()
    for dy, dx in _TAPS_3X3[1:]:
        acc += p[..., dy : dy + h, dx : dx + w]
    return acc * (1.0 / 9.0)


_SSIM_C1, _SSIM_C2 = 0.01**2, 0.03**2


def ssim(a: Tensor, b: Tensor) -> Tensor:
    """Channel-mean SSIM map (H, W) of two (C, H, W) images, clamped to
    [-1, 1]: 3x3 window (``_box3``), C1 = 0.01^2, C2 = 0.03^2. The forward
    pass filters the moments a, b, a*a, b*b, a*b as one stack; the backward
    pass filters back, as one stack, the moment gradients that an input
    requiring grad needs."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape or a.ndim != 3:
        raise ValueError(f"ssim expects two (C, H, W) tensors of one shape, got {a.shape} and {b.shape}")
    x, y = a.data, b.data
    mu_a, mu_b, e_aa, e_bb, e_ab = _box3(np.stack([x, y, x * x, y * y, x * y]))
    var_a = e_aa - mu_a * mu_a
    var_b = e_bb - mu_b * mu_b
    cov = e_ab - mu_a * mu_b
    n1, n2 = 2.0 * mu_a * mu_b + _SSIM_C1, 2.0 * cov + _SSIM_C2
    d1, d2 = mu_a * mu_a + mu_b * mu_b + _SSIM_C1, var_a + var_b + _SSIM_C2
    s = (n1 * n2) / (d1 * d2)
    mean = s.mean(axis=0)

    def grad_fn(g):
        gs = g * ((mean >= -1.0) & (mean <= 1.0)) / s.shape[0]
        q, r = gs / (d1 * d2), gs * s
        # with s = n1 n2 / (d1 d2), the gradients of the filtered moments:
        # e_aa and e_bb (one array), e_ab, then mu_a and mu_b, which enter
        # n1 and n2 through 2 mu_a mu_b and d1 and d2 through their squares
        u, v = q * (n2 - n1), r / d2 - r / d1
        moments = [-r / d2, 2.0 * q * n1]
        moments += [2.0 * (mu_b * u + mu_a * v)] if a.requires_grad else []
        moments += [2.0 * (mu_a * u + mu_b * v)] if b.requires_grad else []
        g_sq, g_ab, *g_mu = _box3(np.stack(moments))  # filtered back: _box3 is its own adjoint
        ga = g_mu[0] + 2.0 * x * g_sq + y * g_ab if a.requires_grad else None
        return ga, g_mu[-1] + 2.0 * y * g_sq + x * g_ab if b.requires_grad else None

    return Tensor._make(np.clip(mean, -1.0, 1.0), (a, b), grad_fn, "ssim")


def bilinear_sample(img: Tensor, coords: Tensor, tol: float) -> Tensor:
    """Sample a (C, H, W) image at continuous (x, y) coords (..., 2), giving
    (C, ...). Coordinates clamp to the image; their gradient stops more than
    `tol` outside it. A coordinate within `tol` below an integer takes that
    integer's cell, so round-off cannot pick the side of a one-sided
    gradient. The backward pass sums the coordinate gradient over channels
    and the image gradient of all four corners with one ``np.bincount``."""
    img, coords = _as_tensor(img), _as_tensor(coords)
    c, h, w = img.shape
    upper = np.array([w - 1.0, h - 1.0])
    xy = np.clip(coords.data, 0.0, upper)
    cell = np.clip(np.floor(xy + tol), 0, upper - 1.0).astype(np.int64)
    wx, wy = np.moveaxis(xy - cell, -1, 0)
    idx = cell[..., 1] * w + cell[..., 0]
    flat = img.data.reshape(c, h * w)
    v00, v01, v10, v11 = flat[:, idx], flat[:, idx + 1], flat[:, idx + w], flat[:, idx + w + 1]
    wx1 = 1.0 - wx
    top = v00 * wx1 + v01 * wx
    bot = v10 * wx1 + v11 * wx

    def grad_fn(g):
        gi = gc = None
        if img.requires_grad:
            corners = np.concatenate([idx, idx + 1, idx + w, idx + w + 1], axis=None)
            corners = (np.arange(c) * (h * w))[:, None] + corners  # flat index per channel
            gt, gb = g * (1.0 - wy), g * wy
            parts = (gt * wx1, gt * wx, gb * wx1, gb * wx)
            blend = np.concatenate([part.reshape(c, -1) for part in parts], axis=1)
            gi = np.bincount(corners.ravel(), blend.ravel(), c * h * w).reshape(img.shape)
        if coords.requires_grad:
            gx = (g * ((v01 - v00) * (1.0 - wy) + (v11 - v10) * wy)).sum(axis=0)
            inside = (coords.data >= -tol) & (coords.data <= upper + tol)
            gc = np.stack([gx, (g * (bot - top)).sum(axis=0)], axis=-1) * inside
        return gi, gc

    return Tensor._make(top * (1.0 - wy) + bot * wy, (img, coords), grad_fn, "bilinear_sample")


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _softmax_grad(out: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    return out * (g - (g * out).sum(axis=axis, keepdims=True))


def softmax(t: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax; the max shift is treated as a constant."""
    t = _as_tensor(t)
    out = _softmax(t.data, axis)
    return Tensor._make(out, (t,), lambda g: (_softmax_grad(out, g, axis),), "softmax")


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """``x @ weight + bias`` for (..., D) rows, a (D, D') weight and a (D',)
    bias, as one node. The backward pass runs the GEMMs of the matmul and
    add nodes it replaced: the weight gradient is one GEMM over every
    leading row of ``x``."""
    x, weight, bias = _as_tensor(x), _as_tensor(weight), _as_tensor(bias)
    if x.ndim < 2 or weight.ndim != 2 or x.shape[-1] != weight.shape[0] or bias.shape != weight.shape[1:]:
        raise ValueError(
            f"linear expects (..., D), (D, D') and (D',), got {x.shape}, {weight.shape} and {bias.shape}"
        )
    out = x.data @ weight.data
    out += bias.data

    def grad_fn(g):
        gx = g @ weight.data.T if x.requires_grad else None
        gw = x.data.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1]) if weight.requires_grad else None
        return gx, gw, _unbroadcast(g, bias.shape) if bias.requires_grad else None

    return Tensor._make(out, (x, weight, bias), grad_fn, "linear")


def _head_slots(packed: np.ndarray, dim: int, heads: int) -> np.ndarray:
    """(..., T, parts*dim) projections viewed, without a copy, as
    (parts, ..., h, T, dim/h): one slot of heads per packed part."""
    *lead, t, width = packed.shape
    nl = len(lead)
    split = packed.reshape(*lead, t, width // dim, heads, dim // heads)
    return split.transpose(nl + 1, *range(nl), nl + 2, nl, nl + 3)


def attention(*packed: Tensor, heads: int) -> Tensor:
    """Scaled dot-product attention over ``heads`` heads, merged back to
    (..., N, D), from packed projections: the (..., N, 3D) qkv of
    self-attention, or the (..., N, D) q and (..., M, 2D) kv of
    cross-attention. The scale is (D/heads)^-0.5.

    q, k and v are strided views of the projections, and the products run
    on those views as the composite of matmul, softmax and reshape nodes
    did. The backward pass keeps only the views and the softmax
    probabilities, and adds each part's gradient into one zeroed array per
    projection."""
    packed = tuple(_as_tensor(p) for p in packed)
    *lead, n, width = packed[0].shape
    dim = width // 3 if len(packed) == 1 else width
    widths = [p.shape[-1] for p in packed]
    if widths not in ([3 * dim], [dim, 2 * dim]) or dim % heads or any(p.shape[:-2] != tuple(lead) for p in packed):
        shapes = " and ".join(str(p.shape) for p in packed)
        raise ValueError(
            f"attention expects (..., N, 3D), or (..., N, D) and (..., M, 2D), got {shapes}, {heads} heads"
        )
    scale = (dim // heads) ** -0.5
    views = [_head_slots(p.data, dim, heads) for p in packed]
    q, k, v = (slot for view in views for slot in view)
    probs = _softmax((q @ np.swapaxes(k, -1, -2)) * scale, -1)
    out = np.swapaxes(probs @ v, -3, -2).reshape(*lead, n, dim)

    def grad_fn(g):
        go = np.swapaxes(g.reshape(*lead, n, heads, dim // heads), -3, -2)
        gs = _softmax_grad(probs, go @ np.swapaxes(v, -1, -2), -1) * scale
        slot_grads = (
            lambda: gs @ k,
            lambda: np.swapaxes(np.swapaxes(q, -1, -2) @ gs, -1, -2),
            lambda: np.swapaxes(probs, -1, -2) @ go,
        )
        grads, first = [], 0
        for p, view in zip(packed, views):
            gp = None
            if p.requires_grad:
                gp = np.zeros(p.shape)
                for slot, slot_grad in zip(_head_slots(gp, dim, heads), slot_grads[first:]):
                    slot += slot_grad()
            grads.append(gp)
            first += len(view)
        return tuple(grads)

    return Tensor._make(out, packed, grad_fn, "attention")


_LAYERNORM_EPS = 1e-5


def layernorm(t: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Layer normalization over the last axis with learnable scale and shift;
    the variance is stabilised by adding 1e-5."""
    t, gamma, beta = _as_tensor(t), _as_tensor(gamma), _as_tensor(beta)
    centred = t.data - t.data.mean(axis=-1, keepdims=True)
    std = np.sqrt((centred * centred).mean(axis=-1, keepdims=True) + _LAYERNORM_EPS)
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
    return [found[id(t)] if id(t) in found else np.zeros_like(t.data) for t in wrt]


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
    x0 = np.array(x.data if isinstance(x, Tensor) else x, dtype=np.float64)
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

"""Reverse-mode automatic differentiation over dense float32 or float64 arrays.

Every differentiable quantity in this package (losses, networks, warps) is a
``Tensor`` so gradients can be audited end to end against finite differences
(the finite-difference audits live in ``tests/oracles.py``).
The dtype follows the data: a Tensor keeps float32 or float64 data as
given, every op allocates its arrays in its operands' dtype, and a Python
scalar operand takes the Tensor's. The network's parameters are float32;
the objective and the direct route hold float64 arrays, so an op mixing
the two computes in float64 (numpy's promotion), and ``backward`` casts a
gradient to the dtype of the tensor it reaches. Broadcasting follows numpy's
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

__all__ = [
    "Tensor",
    "NonFiniteError",
    "EmptyValidSetError",
    "parameter",
    "concat",
    "row_index",
    "row_scatter",
    "upsample_nearest",
    "conv3x3",
    "conv3x3_up2_gelu_linear",
    "ssim_moments",
    "ssim",
    "bilinear",
    "linear",
    "gelu_linear",
    "attention",
    "layernorm",
    "backward",
    "grads",
    "checked_enabled",
    "checked",
    "no_grad",
    "replayed",
]

# Python floats, which take a float32 operand's dtype (NEP 50); an np.float64 would promote it
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


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


# GELU's cdf Phi(x) = 0.5 (1 + erf(u)), u = x / sqrt 2, by Cephes ndtr.c (S. L. Moshier; Cody-style rational
# approximations), leading coefficient first, U and Q monic with that 1 left out. |u| < 1: erf(u) = u T(u^2) / U(u^2),
# so Phi = 0.5 + x T'(x^2) / U'(x^2), x^2 = 2 u^2, 0.5 / sqrt 2 folded into T'. 1 <= |u| < 6: Phi = 0.5 +- (0.5 -
# exp(-u^2) 0.5 P(|u|) / Q(|u|)), which rounds as 0.5 (1 + erf) for the same erf; then 0 or 1. Tested: within 3.3e-16
# (1.5 ulp of 0.5) of 0.5 (1 + math.erf(u)).
_GELU_T = np.array([9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
                    7.00332514112805075473e3, 5.55923013010394962768e4]) * 2.0 ** np.arange(1, 6) * (0.5 * _INV_SQRT2)
_GELU_U = np.array([3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
                    2.26290000613890934246e4, 4.92673942608635921086e4]) * 2.0 ** np.arange(1, 6)
_GELU_P = 0.5 * np.array([2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
                          4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
                          9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2])
_GELU_Q = np.array([1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
                    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
                    1.65666309194161350182e3, 5.57535340817727675546e2])
_GELU_BLOCK = 16384


def _rational(z: np.ndarray, num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num(z) / den(z) by Horner, in place after the first step."""
    p = z * num[0] + num[1]
    for c in num[2:]:
        p *= z
        p += c
    q = z + den[0]
    for c in den[1:]:
        q *= z
        q += c
    p /= q
    return p


def _gelu_cdf(x: np.ndarray) -> np.ndarray:
    """Phi(x) in x's layout and dtype, by blocks of its memory order that
    stay in cache. Each block is computed in float64 and rounded once to
    x's dtype: in float32 arithmetic the rational's rounding reached 2.1
    float32 ulp of 0.5."""
    x = x if np.may_share_memory(x.ravel(order="K"), x) else x.copy(order="K")  # dense, so ravel orders match
    cdf = np.empty_like(x)
    src, dst = x.ravel(order="K"), cdf.ravel(order="K")
    with np.errstate(all="ignore"):  # |u| < 1's formula overflows where the tail's replaces it
        for i in range(0, src.size, _GELU_BLOCK):
            xb, out = np.asarray(src[i : i + _GELU_BLOCK], dtype=np.float64), dst[i : i + _GELU_BLOCK]
            z = xb * xb
            np.add(_rational(z, _GELU_T, _GELU_U) * xb, 0.5, out=out)
            if not z.max() < 2.0:  # some |u| >= 1, or a NaN
                tail = z >= 2.0
                xt = xb[tail]
                u = np.minimum(np.abs(xt) * _INV_SQRT2, 6.0)
                out[tail] = np.copysign(0.5 - np.exp(-(u * u)) * _rational(u, _GELU_P, _GELU_Q), xt) + 0.5
    return cdf


def _gelu_grad(x: np.ndarray, cdf: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g * (cdf + x * exp(-0.5 * x * x) / sqrt(2 pi)), in place in that order, in x's layout."""
    d = x * -0.5
    d *= x
    np.exp(d, out=d)
    d *= _INV_SQRT2PI
    d *= x
    d += cdf
    d *= g
    return d


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


_FLOATS = (np.dtype(np.float32), np.dtype(np.float64))


class Tensor:
    """Dense float32 or float64 array participating in reverse-mode
    differentiation; data of any other dtype becomes float64.

    Gradients with respect to leaves created with ``requires_grad=True`` are
    returned by :func:`backward` and :func:`grads`; no tensor stores one.
    Tensors are treated as immutable after creation; optimizers update leaf
    ``.data`` only between graph constructions.
    """

    __slots__ = ("data", "requires_grad", "_parents", "_grad_fn", "op")

    def __init__(self, data, requires_grad: bool = False, *, _parents=(), _grad_fn=None, op="leaf"):
        data = np.asarray(data)
        self.data = data if data.dtype in _FLOATS else data.astype(np.float64)
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

    # ---- graph plumbing --------------------------------------------------------

    @staticmethod
    def _make(data, parents: Sequence["Tensor"], grad_fn, op: str) -> "Tensor":
        state = _state
        if state.checked:
            _verify_finite(np.asarray(data), op)
        if state.grad:
            for p in parents:
                if p.requires_grad:
                    return Tensor(data, requires_grad=True, _parents=tuple(parents), _grad_fn=grad_fn, op=op)
        return Tensor(data, op=op)

    # ---- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        a, b = self, _as_tensor(other, self)
        out = a.data + b.data

        def grad_fn(g):
            ga = _unbroadcast(g, a.shape) if a.requires_grad else None
            return ga, _unbroadcast(g, b.shape) if b.requires_grad else None

        return Tensor._make(out, (a, b), grad_fn, "add")

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self, _as_tensor(other, self)
        out = a.data - b.data

        def grad_fn(g):
            ga = _unbroadcast(g, a.shape) if a.requires_grad else None
            return ga, _unbroadcast(-g, b.shape) if b.requires_grad else None

        return Tensor._make(out, (a, b), grad_fn, "sub")

    def __mul__(self, other):
        a, b = self, _as_tensor(other, self)
        out = a.data * b.data

        def grad_fn(g):
            ga = _unbroadcast(g * b.data, a.shape) if a.requires_grad else None
            return ga, _unbroadcast(g * a.data, b.shape) if b.requires_grad else None

        return Tensor._make(out, (a, b), grad_fn, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self, _as_tensor(other, self)
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
        return _as_tensor(other, self).__truediv__(self)

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        a, c = self, float(exponent)
        out = a.data**c

        def grad_fn(g):
            return (g * c * a.data ** (c - 1.0),)

        return Tensor._make(out, (a,), grad_fn, "pow")

    # ---- pointwise functions ----------------------------------------------------

    def exp(self):
        a = self
        out = np.exp(a.data)
        return Tensor._make(out, (a,), lambda g: (g * out,), "exp")

    def sigmoid(self):
        a = self
        with np.errstate(over="ignore"):  # exp overflow saturates correctly
            out = 1.0 / (1.0 + np.exp(-a.data))
        return Tensor._make(out, (a,), lambda g: (g * out * (1.0 - out),), "sigmoid")

    def relu(self):
        a = self
        return Tensor._make(np.maximum(a.data, 0.0), (a,), lambda g: (g * (a.data > 0.0),), "relu")

    def clip(self, lo: float, hi: float):
        """Values clipped to [lo, hi], with no gradient where clipped."""
        a = self
        inside = (a.data >= lo) & (a.data <= hi)
        return Tensor._make(np.clip(a.data, lo, hi), (a,), lambda g: (g * inside,), "clip")

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
        if not (axis is None or keepdims):
            shape = list(self.shape)
            for ax in (axis,) if isinstance(axis, int) else axis:
                shape[ax % self.ndim] = 1
            g = g.reshape(shape)
        out = np.empty(self.shape, g.dtype)  # filled by one broadcast assignment, not a broadcast view's copy
        out[...] = g
        return out

    def sum(self, axis=None, keepdims: bool = False):
        a = self
        if a._reduce_count(axis) == 0:
            raise EmptyValidSetError("empty-valid-set")
        out = a.data.sum(axis=axis, keepdims=keepdims)

        def grad_fn(g):
            return (a._expand_reduced(np.asarray(g), axis, keepdims),)

        return Tensor._make(out, (a,), grad_fn, "sum")

    def mean(self, axis=None, keepdims: bool = False):
        a = self
        n = a._reduce_count(axis)
        if n == 0:
            raise EmptyValidSetError("empty-valid-set")
        out = a.data.mean(axis=axis, keepdims=keepdims)

        def grad_fn(g):
            return (a._expand_reduced(np.asarray(g) / n, axis, keepdims),)

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


def _as_tensor(x, like: Tensor | None = None) -> Tensor:
    """`x` as a Tensor; a Python scalar beside `like` takes its dtype, as
    numpy gives a Python scalar its array operand's dtype."""
    if isinstance(x, Tensor):
        return x
    if like is not None and isinstance(x, (int, float)):
        return Tensor(np.asarray(x, dtype=like.data.dtype))
    return Tensor(x)


def parameter(data) -> Tensor:
    """A trainable leaf holding a copy of `data`, in its dtype (Tensor's rule)."""
    return Tensor(np.array(data), requires_grad=True)


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


def row_index(idx) -> tuple:
    """The index of rows `idx` on axis -2 of a (..., N, d) array: a (K,)
    `idx` picks the same K rows of every entry, and a (..., K) one picks
    each entry's own, its leading axes matching the array's last ones."""
    idx = np.asarray(idx, dtype=np.int64)
    return (..., *np.indices((*idx.shape[:-1], 1), sparse=True)[:-1], idx, slice(None))


def row_scatter(base: Tensor, idx: np.ndarray, rows: Tensor) -> Tensor:
    """Copy `base` (..., N, d) with rows at `idx` (on axis -2, see
    `row_index`) replaced by `rows` (..., K, d)."""
    base, rows = _as_tensor(base), _as_tensor(rows)
    at = row_index(idx)
    out = base.data.copy()
    out[at] = rows.data

    def grad_fn(g):
        gb = g.copy()
        gb[at] = 0.0
        return gb, g[at]

    return Tensor._make(out, (base, rows), grad_fn, "row_scatter")


def upsample_nearest(t: Tensor, factor: int) -> Tensor:
    """Nearest-neighbor upsample of a (..., C, H, W) tensor by an integer factor.

    The backward pass adds the k*k strided views of the gradient, one per
    position in a k x k block, in the order in which numpy's
    ``g.reshape(..., H, k, W, k).sum(axis=(-3, -1))`` adds them: each row
    offset's columns, then the row offsets, from +0.0 (so a block of -0.0
    sums to +0.0). The result is that sum's, bit for bit, without its slow
    reduction over two strided axes. At W = 1 numpy sums each block as one
    contiguous run, in another order, so that case keeps the ``sum``."""
    t = _as_tensor(t)
    if t.ndim < 3:
        raise ValueError("upsample_nearest expects a (..., C, H, W) tensor")
    if not isinstance(factor, int) or isinstance(factor, bool) or factor < 1:
        raise ValueError(f"upsample_nearest factor must be an int of at least 1, got {factor!r}")
    k = factor
    out = np.repeat(np.repeat(t.data, k, axis=-2), k, axis=-1)
    *lead, h, w = t.shape

    def grad_fn(g):
        if w == 1:
            return (g.reshape(*lead, h, k, w, k).sum(axis=(-3, -1)),)

        def row(dy):  # the views of row offset dy, added from +0.0
            acc = g[..., dy::k, 0::k] + 0.0
            for dx in range(1, k):
                acc += g[..., dy::k, dx::k]
            return acc

        acc = row(0)
        for dy in range(1, k):
            acc += row(dy)
        return (acc,)

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
    xp = np.zeros((c, n, h + 2, w + 2), x.dtype)
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
    and with it the rounding. A map's im2col rows are written once, each
    tap's block straight from its window of `xp`, into one buffer that the
    maps take in turn: a map's rows, not the batch's, stay in cache for its
    GEMM."""
    c, n = xp.shape[:2]
    out = np.empty((n, w2.shape[1], h * w), np.result_type(xp, w2))
    cols = np.empty((len(taps), c, h, w), xp.dtype)
    for i in range(n):
        for col, (dy, dx) in zip(cols, taps):
            col[...] = xp[:, i, dy : dy + h, dx : dx + w]
        np.matmul(w2.T, cols.reshape(len(taps) * c, h * w), out=out[i])
    return out


def _taps_backward(xp, w2, taps, g2: np.ndarray, gxp: np.ndarray, h: int, w: int) -> np.ndarray:
    """Backward of `_taps_forward` for the output gradient g2 (C_out, n*h*w):
    returns the weight gradient (len(taps), C, C_out) and adds the input
    gradient into the padded `gxp` (col2im), one tap at a time."""
    c, n = xp.shape[:2]
    gw = np.empty((len(taps), c, w2.shape[1]), g2.dtype)
    for k, (dy, dx) in enumerate(taps):
        gw[k] = _tap_rows(xp, dy, dx, h, w) @ g2.T
        gxp[:, :, dy : dy + h, dx : dx + w] += (w2[k * c : (k + 1) * c] @ g2).reshape(c, n, h, w)
    return gw


_TAPS_3X3 = [divmod(k, 3) for k in range(9)]


def conv3x3(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """3x3 convolution of a (..., C, H, W) map, zero padded, stride 1.

    `weight` is (3, 3, C, C_out) and `bias` is (C_out,). The forward pass is
    one GEMM per map over its im2col rows. The node keeps only its operands:
    the backward pass pads the input again, channel-major, and rebuilds
    each tap's rows from that copy for the tap's weight gradient GEMM (not
    the nine times larger im2col matrix), then folds each tap's column
    gradient back onto the input (col2im) one tap at a time.
    """
    x, weight, bias, lead, c, h, w, c_out = _conv_operands("conv3x3", x, weight, bias)
    n = math.prod(lead)
    w2 = weight.data.reshape(9 * c, c_out)
    out = _taps_forward(_pad_channel_major(x.data, n, c, h, w), w2, _TAPS_3X3, h, w)
    out += bias.data[:, None]

    def grad_fn(g):
        g2 = g.reshape(n, c_out, h * w).transpose(1, 0, 2).reshape(c_out, n * h * w)
        xp = _pad_channel_major(x.data, n, c, h, w)
        gxp = np.zeros_like(xp)
        gw = _taps_backward(xp, w2, _TAPS_3X3, g2, gxp, h, w)
        return _unpad_channel_major(gxp, lead, c, h, w), gw.reshape(weight.shape), g2.sum(axis=1)

    return Tensor._make(out.reshape(*lead, c_out, h, w), (x, weight, bias), grad_fn, "conv3x3")


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


def conv3x3_up2_gelu_linear(x: Tensor, weight: Tensor, bias: Tensor, proj_weight: Tensor, proj_bias: Tensor) -> Tensor:
    """``conv3x3(upsample_nearest(x, 2), weight, bias)``, GELU, then the
    (C_out, 1) projection of each pixel, as one node: (..., C, H, W) maps
    give the (..., 2H, 2W) one-channel map.

    Each output phase (row and column parity) is a 2x2 convolution of the
    zero-padded coarse map by the 3x3 kernel folded onto the coarse pixels
    its taps read (sub-pixel convolution, arXiv 1609.05158): 4 instead of 9
    multiply-adds per output pixel and channel pair. The node takes one
    phase at a time from its im2col GEMM through GELU to a GEMV per map
    that writes the phase's strided pixels, so the C_out-channel map is
    never formed at full resolution. With a graph it keeps each phase's
    pre-activations and cdf, (C_out, n, H*W); the backward pass runs phase
    by phase too, and folds the phase-kernel gradients onto the 3x3 weight.
    """
    op = "conv3x3_up2_gelu_linear"
    x, weight, bias, lead, c, h, w, c_out = _conv_operands(op, x, weight, bias)
    proj_weight, proj_bias = _as_tensor(proj_weight), _as_tensor(proj_bias)
    if proj_weight.shape != (c_out, 1) or proj_bias.shape != (1,):
        raise ValueError(f"{op} projection must be ({c_out}, 1) and (1,), got {proj_weight.shape}, {proj_bias.shape}")
    n = math.prod(lead)
    parents = (x, weight, bias, proj_weight, proj_bias)
    fold = _UP2_FOLD.astype(weight.data.dtype, copy=False)  # zeros and ones: exact in either dtype
    dtype = np.result_type(x.data, weight.data)

    def operands():  # the padded coarse maps and the four phase kernels
        kernels = fold @ weight.data.reshape(9, c * c_out)
        return _pad_channel_major(x.data, n, c, h, w), kernels.reshape(4, 4 * c, c_out)

    xp, kernels = operands()
    out = np.empty((n, 2 * h, 2 * w), dtype)
    kept = [] if _state.grad and any(p.requires_grad for p in parents) else None  # per phase: pre and cdf
    for ((py, px), taps), k2 in zip(_UP2_PHASES, kernels):
        pre = np.add(_taps_forward(xp, k2, taps, h, w).transpose(1, 0, 2), bias.data[:, None, None],
                     out=np.empty((c_out, n, h * w), dtype))
        cdf = _gelu_cdf(pre)
        raw = np.matmul((pre * cdf).transpose(1, 2, 0), proj_weight.data) + proj_bias.data  # a GEMV per map
        out[:, py::2, px::2] = raw.reshape(n, h, w)
        if kept is not None:
            kept.append((pre, cdf))

    def grad_fn(g):
        g = g.reshape(n, 2 * h, 2 * w)
        xp, kernels = operands()
        gxp = np.zeros_like(xp)
        gk = np.empty((4, 4, c, c_out), dtype)
        gb, gpw = np.zeros(c_out, dtype), np.zeros((c_out, 1), dtype)
        for i, (((py, px), taps), k2, (pre, cdf)) in enumerate(zip(_UP2_PHASES, kernels, kept)):
            gp = g[:, py::2, px::2].reshape(n, h * w)  # a copy of the phase's pixels
            gpw[:, 0] += (pre * cdf).reshape(c_out, n * h * w) @ gp.reshape(n * h * w)
            g2 = _gelu_grad(pre, cdf, np.multiply.outer(proj_weight.data[:, 0], gp)).reshape(c_out, n * h * w)
            gb += g2.sum(axis=1)
            gk[i] = _taps_backward(xp, k2, taps, g2, gxp, h, w)
        gw = fold.T @ gk.reshape(16, c * c_out)
        gpb = g.reshape(n, 4 * h * w, 1).sum(axis=(0, 1))  # summed in `gelu_linear`'s order
        return _unpad_channel_major(gxp, lead, c, h, w), gw.reshape(weight.shape), gb, gpw, gpb

    return Tensor._make(out.reshape(*lead, 2 * h, 2 * w), parents, grad_fn, op)


def _box3(x: np.ndarray) -> np.ndarray:
    """3x3 box mean over the last two axes, edge replicated; the taps are
    summed row by row. It is its own adjoint (each axis's edge-replicated
    3-sum is a symmetric matrix).

    The replicated maps are laid out flat in rows of W + 2, so each tap is
    one contiguous run of H (W + 2) entries; each run's last two columns
    wrap into the next row and are dropped at the end, and the two entries
    after the last row are there for the (2, 2) tap's run to end in."""
    *lead, h, w = x.shape
    row, run = w + 2, h * (w + 2)
    flat = np.empty((*lead, (h + 2) * row + 2), x.dtype)
    p = flat[..., : (h + 2) * row].reshape(*lead, h + 2, row)
    p[..., 1:-1, 1:-1] = x
    p[..., 0, 1:-1] = x[..., 0, :]
    p[..., -1, 1:-1] = x[..., -1, :]
    p[..., 0] = p[..., 1]
    p[..., -1] = p[..., -2]
    flat[..., -2:] = 0.0
    starts = [dy * row + dx for dy, dx in _TAPS_3X3]
    acc = flat[..., starts[0] : starts[0] + run] + flat[..., starts[1] : starts[1] + run]
    for start in starts[2:]:
        acc += flat[..., start : start + run]
    return np.multiply(acc.reshape(*lead, h, row)[..., :w], 1.0 / 9.0)


_SSIM_C1, _SSIM_C2 = 0.01**2, 0.03**2


def ssim_moments(a: np.ndarray) -> np.ndarray:
    """a's filtered moments (mu_a, E[a*a]) as ``ssim`` filters them."""
    return _box3(np.stack([a, a * a]))


def ssim(x: np.ndarray, y: np.ndarray, moments_x: np.ndarray | None = None):
    """(map, backward) of the channel-mean SSIM of two (C, H, W) arrays,
    clamped to [-1, 1]: 3x3 window (``_box3``), C1 = 0.01^2, C2 = 0.03^2. It
    filters y, y*y, x*y as one stack (x's moments too, unless `moments_x`);
    ``backward(g, wrt_x, wrt_y)`` filters back, as one stack, the moment
    gradients that x's and y's gradients (None if not wanted) need."""
    if x.shape != y.shape or x.ndim != 3:
        raise ValueError(f"ssim expects two (C, H, W) arrays of one shape, got {x.shape} and {y.shape}")
    mu_a, e_aa = ssim_moments(x) if moments_x is None else moments_x
    mu_b, e_bb, e_ab = _box3(np.stack([y, y * y, x * y]))
    var_a = e_aa - mu_a * mu_a
    var_b = e_bb - mu_b * mu_b
    cov = e_ab - mu_a * mu_b
    n1, n2 = 2.0 * mu_a * mu_b + _SSIM_C1, 2.0 * cov + _SSIM_C2
    d1, d2 = mu_a * mu_a + mu_b * mu_b + _SSIM_C1, var_a + var_b + _SSIM_C2
    den = d1 * d2
    s = (n1 * n2) / den
    mean = s.mean(axis=0)

    def backward(g, wrt_x, wrt_y):
        gs = g * ((mean >= -1.0) & (mean <= 1.0)) / s.shape[0]
        q, r = gs / den, gs * s
        # with s = n1 n2 / (d1 d2), the gradients of the filtered moments:
        # e_aa and e_bb (one array), e_ab, then mu_a and mu_b, which enter
        # n1 and n2 through 2 mu_a mu_b and d1 and d2 through their squares
        r_d2 = r / d2
        u, v = q * (n2 - n1), r_d2 - r / d1
        moments = [-r_d2, 2.0 * q * n1]
        moments += [2.0 * (mu_b * u + mu_a * v)] if wrt_x else []
        moments += [2.0 * (mu_a * u + mu_b * v)] if wrt_y else []
        g_sq, g_ab, *g_mu = _box3(np.stack(moments))  # filtered back: _box3 is its own adjoint
        gx = g_mu[0] + 2.0 * x * g_sq + y * g_ab if wrt_x else None
        return gx, g_mu[-1] + 2.0 * y * g_sq + x * g_ab if wrt_y else None

    return np.clip(mean, -1.0, 1.0), backward


def bilinear(img: np.ndarray, coords: np.ndarray, tol: float):
    """(samples (C, ...), backward) of a (C, H, W) image at continuous (x, y)
    coords (..., 2). Coordinates clamp to the image; their gradient stops
    more than `tol` outside it. A coordinate within `tol` below an integer
    takes that integer's cell, so round-off cannot pick the side of a
    one-sided gradient. ``backward(g, wrt_img, wrt_coords)`` gives the image
    gradient of all four corners with one ``np.bincount`` and the coordinate
    gradient summed over channels (None if not wanted)."""
    c, h, w = img.shape
    upper = np.array([w - 1.0, h - 1.0])
    xy = np.clip(coords, 0.0, upper)
    cell = np.minimum(np.floor(xy + tol), upper - 1.0).astype(np.int64)  # no lower clip: xy >= 0
    frac = xy - cell
    wx, wy = frac[..., 0], frac[..., 1]
    wx1, wy1 = 1.0 - wx, 1.0 - wy
    idx = cell[..., 1] * w + cell[..., 0]
    corners = np.array([0, 1, w, w + 1]).reshape(4, *(1,) * idx.ndim) + idx  # (4, ...): the cell's corners
    v00, v01, v10, v11 = img.reshape(c, h * w).take(corners, axis=1).swapaxes(0, 1)  # each (C, ...)
    top = v00 * wx1 + v01 * wx
    bot = v10 * wx1 + v11 * wx

    def backward(g, wrt_img, wrt_coords):
        gi = gc = None
        if wrt_img:
            index = (np.arange(c) * (h * w))[:, None] + corners.reshape(1, -1)  # per channel, corner by corner
            gt, gb = g * wy1, g * wy
            parts = (gt * wx1, gt * wx, gb * wx1, gb * wx)
            blend = np.concatenate([part.reshape(c, -1) for part in parts], axis=1)
            gi = np.bincount(index.ravel(), blend.ravel(), c * h * w).reshape(img.shape)
        if wrt_coords:
            gc = np.empty(coords.shape, coords.dtype)
            gc[..., 0] = (g * ((v01 - v00) * wy1 + (v11 - v10) * wy)).sum(axis=0)
            gc[..., 1] = (g * (bot - top)).sum(axis=0)
            gc *= (coords >= -tol) & (coords <= upper + tol)
        return gi, gc

    return top * wy1 + bot * wy, backward


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    e = x - np.maximum.reduce(x, axis=axis, keepdims=True)  # ufunc reduce: .max without its Python wrapper
    np.exp(e, out=e)
    return np.divide(e, np.add.reduce(e, axis=axis, keepdims=True), out=e)


def _softmax_grad(out: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    t = g * out  # out * (g - sum(g * out)), in the product's buffer
    np.subtract(g, np.add.reduce(t, axis=axis, keepdims=True), out=t)
    return np.multiply(t, out, out=t)


def _linear_operands(op: str, x, weight, bias):
    x, weight, bias = _as_tensor(x), _as_tensor(weight), _as_tensor(bias)
    if x.ndim < 2 or weight.ndim != 2 or x.shape[-1] != weight.shape[0] or bias.shape != weight.shape[1:]:
        raise ValueError(
            f"{op} expects (..., D), (D, D') and (D',), got {x.shape}, {weight.shape} and {bias.shape}"
        )
    return x, weight, bias


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """``x @ weight + bias`` for (..., D) rows, a (D, D') weight and a (D',)
    bias, as one node: every `nn.Linear` runs it. The backward pass runs
    the GEMMs of the matmul and add nodes it replaced: the weight gradient
    is one GEMM over every leading row of ``x``, the input gradient
    ``g @ weight.T``."""
    x, weight, bias = _linear_operands("linear", x, weight, bias)
    out = x.data @ weight.data
    out += bias.data

    def grad_fn(g):
        gx = g @ weight.data.T if x.requires_grad else None
        gw = x.data.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1]) if weight.requires_grad else None
        return gx, gw, _unbroadcast(g, bias.shape) if bias.requires_grad else None

    return Tensor._make(out, (x, weight, bias), grad_fn, "linear")


def gelu_linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """``linear(gelu(x), weight, bias)`` as one node that keeps GELU's cdf
    but not the activation: the backward pass forms it again for the weight
    gradient and takes the input gradient ``g @ weight.T`` through GELU's
    derivative. Output and gradients are the composite's, bit for bit.
    Every GELU on tokens runs it, fused with the projection it feeds."""
    x, weight, bias = _linear_operands("gelu_linear", x, weight, bias)
    cdf = _gelu_cdf(x.data)
    out = (x.data * cdf) @ weight.data
    out += bias.data

    def grad_fn(g):
        gw = None
        if weight.requires_grad:  # first, so the activation is gone before gx
            gw = (x.data * cdf).reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        gx = _gelu_grad(x.data, cdf, g @ weight.data.T) if x.requires_grad else None
        return gx, gw, _unbroadcast(g, bias.shape) if bias.requires_grad else None

    return Tensor._make(out, (x, weight, bias), grad_fn, "gelu_linear")


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
                gp = np.zeros(p.shape, p.data.dtype)
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
    d = t.shape[-1]
    normed = t.data - np.add.reduce(t.data, axis=-1, keepdims=True) / d  # centred, then normed in place
    out = normed * normed  # the squares' buffer holds the output
    std = np.sqrt(np.add.reduce(out, axis=-1, keepdims=True) / d + _LAYERNORM_EPS)
    normed /= std
    np.add(np.multiply(normed, gamma.data, out=out), beta.data, out=out)

    def grad_fn(g):
        gt = g * gamma.data  # ((gn - mean(gn)) - normed * mean(gn * normed)) / std, in gn
        prod = gt * normed
        gt -= np.add.reduce(gt, axis=-1, keepdims=True) / d
        gt -= np.multiply(normed, np.add.reduce(prod, axis=-1, keepdims=True) / d, out=prod)
        gt /= std
        gg = _unbroadcast(g * normed, gamma.shape) if gamma.requires_grad else None
        return gt, gg, _unbroadcast(g, beta.shape) if beta.requires_grad else None

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
        # post-order DFS, parents last to first: the order fixes how 3+ gradients into a tensor add up
        order, seen, stack = [], {id(root)}, [(root, reversed(root._parents))]
        while stack:
            node, parents = stack[-1]
            for parent in parents:
                if parent.requires_grad and id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append((parent, reversed(parent._parents)))
                    break
            else:
                stack.pop()
                order.append(node)
        return cls(order)


def backward(loss: Tensor, into: Mapping[int, np.ndarray] | None = None) -> dict[int, np.ndarray]:
    """Backpropagate from a scalar loss.

    Returns the gradient of every requires-grad leaf the loss reaches, keyed
    by ``id(leaf)``, in the leaf's dtype; leaves it does not reach are
    absent. Each tensor's gradient is summed in the dtype its consumers
    give it, then cast to the tensor's own. A leaf that ``into`` maps by id
    to an array of its shape and dtype has its gradient added into that
    array in place, as soon as it is complete, and the result holds that
    array for it: so no copy of it outlives the pass.
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
            dest = into.get(id(node)) if into else None
            if dest is None:
                leaf_grads[id(node)] = np.array(g, dtype=node.data.dtype)
            else:
                leaf_grads[id(node)] = np.add(dest, np.asarray(g, dtype=node.data.dtype), out=dest)
            continue
        # in the node's dtype, which a float64 consumer of a float32 node does not give it
        g = np.asarray(g, dtype=node.data.dtype)
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

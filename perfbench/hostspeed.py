"""Host speed: a fixed reference kernel timed next to every measured unit.

The benchmark runs on a few cores of a shared host whose co-tenants slow the
whole CPU by up to a third for seconds to minutes at a time; the process's
CPU time slows with its wall time, so CPU time does not help. A unit's raw
rate therefore depends on when it ran. The kernel below does a fixed amount
of the same kind of work as dvokit (a tape of small numpy ops with Python
bookkeeping, image differences, an im2col-sized matmul) and never calls
dvokit, so a change to the program cannot change it. Timing it right before
and right after a unit gives the host's speed during the unit; dividing the
unit's time by that speed gives its time on the host at `NOMINAL_S`, which
is what the end-to-end time and rate metrics report.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's time on the host the baseline was taken on, in a quiet phase
# (fastest of 200 calls). A scale constant only: it makes the scaled figures
# read as seconds and rates on that host.
NOMINAL_S = 0.041
REPS = 8


class _Node:
    __slots__ = ("data", "parents", "op")

    def __init__(self, data, parents, op):
        self.data, self.parents, self.op = data, parents, op


_rng = np.random.default_rng(0)
_TOKENS = _rng.standard_normal((64, 64))
_WEIGHT = 0.1 * _rng.standard_normal((64, 64))
_IMAGE = _rng.standard_normal((3, 34, 34))
_COLUMNS = _rng.standard_normal((1024, 288))
_KERNEL = _rng.standard_normal((288, 32))


def kernel() -> float:
    """Run the reference work once; return its wall time in seconds."""
    started = time.perf_counter()
    for _ in range(REPS):
        nodes = []
        x = _TOKENS
        for _ in range(30):
            h = x @ _WEIGHT
            h = h - h.mean(axis=-1, keepdims=True)
            h = h / np.sqrt((h * h).mean(axis=-1, keepdims=True) + 1e-6)
            e = np.exp(h - h.max(axis=-1, keepdims=True))
            x = x + 0.1 * (e / e.sum(axis=-1, keepdims=True)) @ _WEIGHT.T
            nodes.append(_Node(h, (x,), "matmul"))
            nodes.append(_Node(e, (h,), "exp"))
        {id(node): node.data.sum() for node in reversed(nodes)}
        d = _IMAGE[:, 1:-1, 2:] - _IMAGE[:, 1:-1, :-2] + _IMAGE[:, 2:, 1:-1] - _IMAGE[:, :-2, 1:-1]
        np.abs(d).mean() + np.clip(d, -1.0, 1.0).sum()
        y = np.maximum(_COLUMNS @ _KERNEL, 0.0)
        y.T @ _COLUMNS
    return time.perf_counter() - started


class HostClock:
    """Brackets timed work with kernel runs. `slowdown()` after a piece of
    work is the mean of the kernel times before and after it over
    NOMINAL_S: above 1 when the host ran slower than nominal."""

    def __init__(self):
        self._last = kernel()

    def slowdown(self) -> float:
        after = kernel()
        factor = 0.5 * (self._last + after) / NOMINAL_S
        self._last = after
        return factor

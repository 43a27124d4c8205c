"""In-memory span tracing from outside the program.

A span records a name, a start, an end and the span that was open when it
began. Wrappers that open spans are installed over names in dvokit's modules
and classes, at the place where dvokit looks the name up, and are restored on
exit, also when the traced code raises. The program's own files are not
changed, so a traced run computes exactly what an untraced run computes.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

# Time spent in the tracer's own count hooks; it is a child of the span that
# was open, so it is excluded from that span's self time.
HOOK_SPAN = "trace.hook"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans


class Tracer:
    """Records spans and counters in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), float("nan"), parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name!r} ended out of order")
        self._open.pop()
        self.spans[index].end = self.clock()

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for i, span in enumerate(spans):
        inside = [(max(c.start, span.start), min(c.end, span.end)) for c in children[i]]
        out.append((span.end - span.start) - _covered(inside))
    return out


def self_time_by_name(spans: list[Span]) -> Counter:
    totals: Counter = Counter()
    for span, own in zip(spans, self_times(spans)):
        totals[span.name] += own
    return totals


# ---- wrappers ------------------------------------------------------------------------


@dataclass(frozen=True)
class Patch:
    """Trace calls to `owner.attr` (a module global or a class attribute) as
    spans called `name`. `count(counts, args, result)` runs after each call
    to add counters; its own time is recorded as a hook span."""

    owner: object
    attr: str
    name: str
    count: Callable[[Counter, tuple, object], None] | None = None


def _wrap(tracer: Tracer, patch: Patch, raw):
    is_classmethod = isinstance(raw, classmethod)
    fn = raw.__func__ if is_classmethod else raw

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.begin(patch.name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if patch.count is not None:
            with tracer.span(HOOK_SPAN):
                patch.count(tracer.counts, args, result)
        return result

    return classmethod(traced) if is_classmethod else traced


@contextmanager
def installed(tracer: Tracer, patches: list[Patch]) -> Iterator[None]:
    """Install the wrappers for the duration of the block, then put every
    original attribute back, whether or not the block raised."""
    saved = []
    try:
        for patch in patches:
            namespace = vars(patch.owner)
            if patch.attr not in namespace:
                raise AttributeError(f"{patch.owner!r} does not define {patch.attr!r} itself")
            raw = namespace[patch.attr]
            setattr(patch.owner, patch.attr, _wrap(tracer, patch, raw))
            saved.append((patch, raw))
        yield
    finally:
        for patch, raw in reversed(saved):
            setattr(patch.owner, patch.attr, raw)

"""Span bookkeeping and wrapper installation of the traced run."""

import math

import pytest

import layers
from tracing import Patch, Span, Tracer, installed, self_time_by_name, self_times


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),  # overlaps a: the children cover [1, 6]
        Span("a.inner", 2.0, 3.0, 1),
        Span("b.late", 5.0, 12.0, 2),  # runs past its parent: clipped to [5, 6]
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 2.0, 1.0, 7.0])
    totals = self_time_by_name(spans + [Span("a", 20.0, 21.0, None)])
    assert totals["a"] == pytest.approx(3.0)


def test_tracer_records_nesting_with_its_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    assert [(s.name, s.start, s.end, s.parent) for s in tracer.spans] == [
        ("outer", 0.0, 5.0, None),
        ("inner", 1.0, 2.0, 0),
        ("inner", 3.0, 4.0, 0),
    ]
    assert self_time_by_name(tracer.spans) == {"outer": 3.0, "inner": 2.0}


class _Owner:
    @classmethod
    def make(cls, x):
        return (cls.__name__, x)

    def twice(self, x):
        return 2 * x


def test_wrappers_trace_and_count_without_changing_results():
    tracer = Tracer()
    count = lambda counts, args, result: counts.update(made=1)  # noqa: E731
    with installed(tracer, [Patch(_Owner, "make", "owner.make", count), Patch(_Owner, "twice", "owner.twice")]):
        assert _Owner.make(3) == ("_Owner", 3)
        assert _Owner().twice(4) == 8
    assert [s.name for s in tracer.spans] == ["owner.make", "trace.hook", "owner.twice"]
    assert tracer.counts["made"] == 1
    assert all(math.isfinite(s.end) for s in tracer.spans)


def test_every_patched_attribute_is_restored_even_when_the_block_raises():
    patches = layers.dvokit_patches()
    before = [vars(p.owner)[p.attr] for p in patches]
    tracer = Tracer()
    with pytest.raises(RuntimeError, match="workload failed"):
        with installed(tracer, patches):
            assert all(vars(p.owner)[p.attr] is not raw for p, raw in zip(patches, before))
            raise RuntimeError("workload failed")
    assert all(vars(p.owner)[p.attr] is raw for p, raw in zip(patches, before))


def test_a_missing_target_restores_what_was_installed():
    tracer = Tracer()
    good = Patch(_Owner, "twice", "owner.twice")
    raw = vars(_Owner)["twice"]
    with pytest.raises(AttributeError):
        with installed(tracer, [good, Patch(_Owner, "absent", "owner.absent")]):
            pass
    assert vars(_Owner)["twice"] is raw


def test_tail_percentile_keeps_ten_samples_beyond():
    assert layers.tail_percentile(1000) == 99
    assert layers.tail_percentile(200) == 95
    assert layers.tail_percentile(32) == 68
    assert layers.tail_percentile(21) == 52
    assert layers.tail_percentile(20) is None
    assert layers.tail_percentile(0) is None

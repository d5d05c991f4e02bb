"""Span tracer: nesting, bounded buffer, JSONL round trip, null objects."""

import pytest

import time

from repro.telemetry import (
    NULL_SPAN,
    NULL_TRACER,
    JsonlSink,
    SpanEvent,
    Tracer,
    read_trace,
)
from repro.util.timer import TimingRecord


class _FakeClock:
    """Deterministic monotonic clock advancing 1.0 per tick() call."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def tick(self, dt: float = 1.0) -> None:
        self.t += dt


class TestSpanNesting:
    def test_parent_child_ids(self):
        tracer = Tracer(clock=_FakeClock())
        outer = tracer.start("chunk", m=4)
        inner = tracer.start("step")
        assert inner.parent_id == outer.span_id
        assert tracer.open_spans == 2
        assert tracer.current is inner
        tracer.end(inner)
        tracer.end(outer)
        names = [e.name for e in tracer.buffered]
        assert names == ["step", "chunk"]  # child closes first
        assert tracer.open_spans == 0

    def test_span_context_manager_records_error_type(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("1st solve"):
                raise ValueError("boom")
        (event,) = tracer.buffered
        assert event.attrs["error"] == "ValueError"
        assert tracer.open_spans == 0

    def test_durations_from_monotonic_clock(self):
        clock = _FakeClock()
        tracer = Tracer(clock=clock)
        span = tracer.start("work")
        clock.tick(2.5)
        tracer.end(span)
        (event,) = tracer.buffered
        assert event.start == 0.0
        assert event.duration == 2.5

    def test_end_closes_leaked_children(self):
        tracer = Tracer()
        outer = tracer.start("chunk")
        tracer.start("step")  # never ended explicitly
        tracer.end(outer)
        events = {e.name: e for e in tracer.buffered}
        assert events["step"].attrs.get("leaked") is True
        assert "leaked" not in events["chunk"].attrs
        assert tracer.open_spans == 0

    def test_double_end_is_noop(self):
        tracer = Tracer()
        span = tracer.start("a")
        tracer.end(span)
        tracer.end(span)
        assert len(tracer.buffered) == 1

    def test_record_parents_to_innermost_open_span(self):
        tracer = Tracer()
        with tracer.span("phase") as phase:
            tracer.record("spmv", 1e-4, m=1)
        spmv = next(e for e in tracer.buffered if e.name == "spmv")
        assert spmv.parent_id == phase.span_id
        assert spmv.duration == 1e-4

    def test_emit_with_explicit_parent(self):
        tracer = Tracer()
        tracer.emit("gspmv", start=1.0, duration=0.5, parent_id=77, calls=3)
        (event,) = tracer.buffered
        assert event.parent_id == 77
        assert event.attrs["calls"] == 3

    def test_set_attaches_attrs_before_end(self):
        tracer = Tracer()
        span = tracer.start("cg.solve")
        span.set(iterations=12, converged=True)
        tracer.end(span)
        (event,) = tracer.buffered
        assert event.attrs == {"iterations": 12, "converged": True}

    def test_close_open_force_closes_everything(self):
        tracer = Tracer()
        tracer.start("chunk")
        tracer.start("step")
        closed = tracer.close_open(killed=True)
        assert closed == 2
        assert tracer.open_spans == 0
        assert all(e.attrs.get("killed") for e in tracer.buffered)


class TestBoundedBuffer:
    def test_without_sink_keeps_newest_and_counts_dropped(self):
        tracer = Tracer(buffer_size=4)
        for i in range(6):
            tracer.record(f"ev{i}", 0.0)
        assert tracer.events_emitted == 6
        assert tracer.events_dropped == 3
        assert [e.name for e in tracer.buffered] == ["ev3", "ev4", "ev5"]

    def test_with_sink_drains_at_capacity(self):
        batches = []
        tracer = Tracer(sink=batches.append, buffer_size=3)
        for i in range(7):
            tracer.record(f"ev{i}", 0.0)
        assert tracer.events_dropped == 0
        assert sum(len(b) for b in batches) == 6  # two drains of 3
        assert len(tracer.buffered) == 1

    def test_bad_buffer_size_rejected(self):
        with pytest.raises(ValueError, match="buffer_size"):
            Tracer(buffer_size=0)


class TestJsonl:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sink=JsonlSink(path))
        with tracer.span("chunk", chunk=0, m=4):
            tracer.record("spmv", 2e-5, m=1, nb=10, nnzb=40, b=3)
        tracer.drain()
        events = read_trace(path)
        assert [e.name for e in events] == ["spmv", "chunk"]
        spmv, chunk = events
        assert spmv.parent_id == chunk.span_id
        assert spmv.attrs["nnzb"] == 40
        assert chunk.attrs == {"chunk": 0, "m": 4}

    def test_append_mode_extends_existing_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        for _ in range(2):
            sink = JsonlSink(path)
            tracer = Tracer(sink=sink)
            tracer.record("run", 0.1)
            tracer.drain()
            sink.close()
        assert len(read_trace(path)) == 2

    def test_span_event_json_round_trip(self):
        event = SpanEvent(
            name="gspmv", span_id=3, parent_id=None, start=1.5,
            duration=0.25, attrs={"m": 8, "backend": "scipy"},
        )
        assert SpanEvent.from_json(event.to_json()) == event


class TestNullObjects:
    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.start("x") is NULL_SPAN
        NULL_TRACER.record("x", 1.0, m=1)
        assert NULL_TRACER.drain() == []
        assert NULL_TRACER.close_open() == 0
        assert NULL_TRACER.open_spans == 0
        with NULL_TRACER.span("x") as span:
            assert NULL_TRACER.open_spans == 0
        # The null span times its block but joins no stack or buffer.
        assert span is not NULL_SPAN
        assert span.name == "x" and span.duration >= 0.0
        assert span.span_id == -1 and span.attrs == {}
        assert NULL_TRACER.drain() == []

    def test_null_span_set_never_mutates_shared_attrs(self):
        NULL_SPAN.set(error="Poison")
        assert NULL_SPAN.attrs == {}
        NULL_SPAN.end(more="poison")
        assert NULL_SPAN.attrs == {}


class TestPhaseClock:
    """Spans are the drivers' only phase clock: each span carries its
    own duration, and a :class:`TimingRecord` is built from spans."""

    def test_span_duration_equals_its_event(self):
        clock = _FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("1st solve") as span:
            assert span.duration == 0.0
            clock.tick(0.75)
        (event,) = tracer.buffered
        assert span.duration == event.duration == 0.75

    def test_leaked_span_keeps_the_duration_it_was_closed_with(self):
        clock = _FakeClock()
        tracer = Tracer(clock=clock)
        chunk = tracer.start("chunk")
        with tracer.span("Construct R") as phase:
            clock.tick(1.0)
            tracer.end(chunk)  # another owner closes the stack under it
            clock.tick(5.0)
        event = next(e for e in tracer.buffered if e.name == "Construct R")
        assert event.attrs["leaked"] is True
        assert phase.duration == event.duration == 1.0

    @pytest.mark.parametrize("traced", [True, False], ids=["tracer", "null"])
    def test_exception_inside_phase_still_recorded(self, traced):
        tracer = Tracer() if traced else NULL_TRACER
        with pytest.raises(RuntimeError):
            with tracer.span("boom") as span:
                time.sleep(0.002)
                raise RuntimeError
        assert span.duration >= 0.002
        assert TimingRecord.from_spans(span).counts == {"boom": 1}

    @pytest.mark.parametrize("traced", [True, False], ids=["tracer", "null"])
    def test_nested_distinct_phases_accumulate_independently(self, traced):
        tracer = Tracer() if traced else NULL_TRACER
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                time.sleep(0.002)
            time.sleep(0.002)
        rec = TimingRecord.from_spans(outer, inner)
        assert rec.counts == {"outer": 1, "inner": 1}
        assert rec.phases["inner"] >= 0.002
        assert rec.phases["outer"] >= rec.phases["inner"] + 0.002

    def test_same_named_phases_accumulate(self):
        clock = _FakeClock()
        tracer = Tracer(clock=clock)
        spans = []
        for dt in (1.0, 2.0):
            with tracer.span("a") as span:
                clock.tick(dt)
            spans.append(span)
        rec = TimingRecord.from_spans(*spans)
        assert rec.counts == {"a": 2}
        assert rec.phases == {"a": 3.0}
        assert rec.total() == 3.0

    def test_record_total_sums_distinct_phases(self):
        clock = _FakeClock()
        tracer = Tracer(clock=clock)
        spans = []
        for name, dt in (("a", 3.0), ("b", 1.0)):
            with tracer.span(name) as span:
                clock.tick(dt)
            spans.append(span)
        rec = TimingRecord.from_spans(*spans)
        assert rec.phases == {"a": 3.0, "b": 1.0}
        assert rec.total() == 4.0

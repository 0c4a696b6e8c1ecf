"""Tests for the span tracer."""

import json

import pytest

from repro.obs.trace import Tracer
from repro.util.clock import SimClock


class TestTracer:
    def test_nesting_and_parents(self):
        tracer = Tracer()
        sweep = tracer.start("sweep")
        batch = tracer.start("batch")
        assert batch.parent_id == sweep.span_id
        assert tracer.depth == 2
        tracer.end(batch)
        tracer.end(sweep)
        assert tracer.depth == 0
        assert [s.name for s in tracer.finished] == ["batch", "sweep"]

    def test_finished_count_needs_no_copy(self):
        tracer = Tracer()
        assert tracer.finished_count == 0
        with tracer.span("sweep"):
            with tracer.span("batch"):
                pass
            assert tracer.finished_count == 1  # open spans do not count
        assert tracer.finished_count == len(tracer.finished) == 2
        other = Tracer()
        with other.span("shard"):
            pass
        tracer.absorb_state(other.snapshot_state())
        assert tracer.finished_count == 3

    def test_durations_come_from_the_clock(self):
        clock = SimClock()
        tracer = Tracer(clock=clock)
        span = tracer.start("stage")
        clock.advance(7)
        tracer.end(span)
        assert span.duration == 7.0

    def test_open_span_has_no_duration(self):
        tracer = Tracer()
        span = tracer.start("open")
        with pytest.raises(ValueError):
            span.duration

    def test_out_of_order_end_rejected(self):
        tracer = Tracer()
        outer = tracer.start("outer")
        tracer.start("inner")
        with pytest.raises(ValueError):
            tracer.end(outer)
        # the stack is intact after the failed close
        assert tracer.depth == 2

    def test_end_with_nothing_open_rejected(self):
        with pytest.raises(ValueError):
            Tracer().end()

    def test_context_manager(self):
        tracer = Tracer()
        with tracer.span("stage", hosts=3) as span:
            assert tracer.active is span
        assert tracer.depth == 0
        assert span.attrs == {"hosts": 3}

    def test_context_manager_unwinds_abandoned_children(self):
        """A crash mid-span must not be masked by a nesting violation."""
        tracer = Tracer()

        class Crash(BaseException):
            pass

        with pytest.raises(Crash):
            with tracer.span("stage"):
                tracer.start("probe")  # abandoned by the crash
                raise Crash()
        assert tracer.depth == 0
        assert [s.name for s in tracer.finished] == ["probe", "stage"]

    def test_queries(self):
        tracer = Tracer()
        sweep = tracer.start("sweep")
        for index in range(2):
            with tracer.span("batch", index=index):
                pass
        tracer.end(sweep)
        batches = tracer.spans_named("batch")
        assert len(batches) == 2
        assert tracer.children_of(sweep) == batches

    def test_snapshot_includes_open_stack(self):
        clock = SimClock()
        tracer = Tracer(clock=clock)
        sweep = tracer.start("sweep")
        with tracer.span("batch"):
            clock.advance(3)
        state = json.loads(json.dumps(tracer.snapshot_state()))

        restored = Tracer(clock=clock)
        restored.restore_state(state)
        assert restored.depth == 1
        assert restored.active.name == "sweep"
        assert restored.active.start == sweep.start
        seen_ids = {s.span_id for s in restored.finished} | {
            restored.active.span_id
        }
        # ids continue without collisions after a resume
        fresh = restored.start("batch")
        assert fresh.span_id not in seen_ids

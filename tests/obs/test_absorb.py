"""Unit tests for the shard-fold absorb API across the three pillars.

``absorb`` is the sanctioned merge path the parallel engine uses to fold
shard-local telemetry into the parent handle; these tests pin the
pillar-level contracts it relies on (span-id rebasing, bucket-wise
histogram addition, event concatenation).
"""

import pytest

from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import Telemetry
from repro.obs.trace import Tracer
from repro.util.clock import SimClock


class TestTracerAbsorb:
    def test_rebases_span_and_parent_ids(self):
        parent = Tracer()
        with parent.span("sweep"):
            pass
        shard = Tracer()
        with shard.span("outer"):
            with shard.span("inner"):
                pass
        parent.absorb(shard)
        names = [s.name for s in parent.finished]
        assert names == ["sweep", "inner", "outer"]
        ids = {s.name: s.span_id for s in parent.finished}
        assert len(set(ids.values())) == 3  # no collisions after rebase
        inner = next(s for s in parent.finished if s.name == "inner")
        outer = next(s for s in parent.finished if s.name == "outer")
        assert inner.parent_id == outer.span_id  # links rebased together

    def test_absorb_order_determines_ids(self):
        def shard(name):
            tracer = Tracer()
            with tracer.span(name):
                pass
            return tracer

        a = Tracer()
        a.absorb(shard("one"))
        a.absorb(shard("two"))
        b = Tracer()
        b.absorb(shard("one"))
        b.absorb(shard("two"))
        assert [s.to_dict() for s in a.finished] == [
            s.to_dict() for s in b.finished
        ]

    def test_refuses_open_spans(self):
        parent, shard = Tracer(), Tracer()
        shard.start("still-open")
        with pytest.raises(ValueError):
            parent.absorb(shard)


class TestMetricsAbsorb:
    def test_counters_and_gauges_fold(self):
        parent, shard = MetricsRegistry(), MetricsRegistry()
        parent.counter("probes", stage="masscan").inc(3)
        shard.counter("probes", stage="masscan").inc(4)
        shard.counter("probes", stage="tsunami").inc(1)
        shard.gauge("depth").set(5)
        parent.absorb(shard)
        assert parent.counter_value("probes", stage="masscan") == 7
        assert parent.counter_value("probes", stage="tsunami") == 1
        assert parent.gauge("depth").value == 5

    def test_histograms_fold_bucket_wise(self):
        parent, shard = MetricsRegistry(), MetricsRegistry()
        for value in (0.1, 0.5):
            parent.histogram("latency").observe(value)
        for value in (0.5, 2.0):
            shard.histogram("latency").observe(value)
        parent.absorb(shard)
        merged = parent.histogram("latency")
        assert merged.count == 4
        assert merged.total == pytest.approx(3.1)

    def test_histogram_bounds_mismatch_is_an_error(self):
        parent, shard = MetricsRegistry(), MetricsRegistry()
        parent.histogram("latency", buckets=(1.0, 2.0)).observe(0.5)
        shard.histogram("latency", buckets=(1.0, 5.0)).observe(0.5)
        with pytest.raises(ValueError):
            parent.absorb(shard)


class TestEventLogAbsorb:
    def test_events_concatenate_and_suppression_carries(self):
        parent = EventLog(min_level="info")
        shard = EventLog(min_level="info")
        parent.info("parallel", "sweep-start")
        shard.info("masscan", "batch")
        shard.debug("masscan", "noise")  # suppressed below min_level
        parent.absorb(shard)
        assert [e.name for e in parent] == ["sweep-start", "batch"]
        assert parent.suppressed == shard.suppressed


class TestTelemetryAbsorb:
    def test_absorb_state_round_trips_a_snapshot(self):
        """The engine folds *serialized* shard telemetry (the checkpoint
        form); absorbing a snapshot must equal absorbing the live handle."""
        def shard():
            clock = SimClock()
            telemetry = Telemetry(clock=clock)
            telemetry.events.info("masscan", "batch", index=0)
            with telemetry.tracer.span("stage:masscan"):
                clock.advance(1.5)
            telemetry.funnel("masscan", 10, 4)
            return telemetry

        live, serialized = Telemetry(), Telemetry()
        live.absorb(shard())
        serialized.absorb_state(shard().snapshot_state())
        assert serialized.export_jsonl() == live.export_jsonl()
        assert (
            serialized.metrics.snapshot_state() == live.metrics.snapshot_state()
        )


class TestFoldEdgeCases:
    """Cross-process fold corners: colliding span ids, empty shards,
    top-K ties, and late payloads after the fold."""

    def test_identical_span_ids_from_two_shards_never_collide(self):
        """Process workers all number their spans from 1; absorbing two
        shards with byte-identical id ranges must rebase both."""
        def shard():
            tracer = Tracer()
            with tracer.span("outer"):
                with tracer.span("inner"):
                    pass
            return tracer.snapshot_state()

        state = shard()
        parent = Tracer()
        with parent.span("sweep"):
            pass
        for _ in range(2):  # same serialized ids absorbed twice
            twin = Tracer()
            twin.restore_state(state)
            parent.absorb(twin)
        ids = [span.span_id for span in parent.finished]
        assert len(ids) == len(set(ids)) == 5
        # parent links still point inside their own shard after rebasing
        outers = [s for s in parent.finished if s.name == "outer"]
        inners = [s for s in parent.finished if s.name == "inner"]
        assert {i.parent_id for i in inners} == {o.span_id for o in outers}

    def test_spans_opened_after_an_absorb_stay_collision_free(self):
        parent = Tracer()
        shard = Tracer()
        with shard.span("shard-span"):
            pass
        parent.absorb(shard)
        with parent.span("late-parent-span"):
            pass
        ids = [span.span_id for span in parent.finished]
        assert len(ids) == len(set(ids))

    def test_absorbing_an_empty_shard_changes_nothing(self):
        """An abandoned shard folds a stub payload; an empty telemetry
        state must be a no-op on every pillar."""
        parent = Telemetry()
        parent.events.info("parallel", "sweep-start")
        parent.funnel("masscan", 4, 2)
        before = (parent.export_jsonl(), parent.metrics.snapshot_state())
        parent.absorb_state(Telemetry().snapshot_state())
        assert (parent.export_jsonl(), parent.metrics.snapshot_state()) == before

    def test_flight_top_k_ties_break_identically_across_fold_orders(self):
        """Records tied on duration at the capacity boundary must keep
        the same winners whatever order shards are absorbed in."""
        from repro.obs.flight import FlightRecorder

        def record(recorder, host, start, duration):
            recorder.record_probe(
                "probe:http", host, 80, start, duration, {},
                events=(), exchange_mark=0,
            )

        def shard(hosts, duration):
            recorder = FlightRecorder(capacity=2)
            for index, host in enumerate(hosts):
                record(recorder, host, float(index), duration)
            return recorder

        # four records, all tied at duration=5.0: the capacity-2 cut
        # lands inside the tie and must resolve by (start, host) alone
        a = shard(("203.0.113.1", "203.0.113.2"), 5.0)
        b = shard(("198.51.100.1", "198.51.100.2"), 5.0)

        forward = FlightRecorder(capacity=2)
        forward.absorb(shard(("203.0.113.1", "203.0.113.2"), 5.0))
        forward.absorb(shard(("198.51.100.1", "198.51.100.2"), 5.0))
        backward = FlightRecorder(capacity=2)
        backward.absorb(b)
        backward.absorb(a)
        assert forward.to_dict() == backward.to_dict()
        assert forward.probes_seen == backward.probes_seen == 4

    def test_console_ignores_payload_arriving_after_the_fold(self):
        """Double-count protection: once finish_sweep has run, the parent
        handle holds every shard's counters, so a straggler payload (a
        pool result delivered late) must not re-enter the aggregate."""
        from repro.core.parallel import ShardResult
        from repro.core.pipeline import ScanReport
        from repro.obs.console import ConsoleHub

        def payload():
            telemetry = Telemetry()
            telemetry.funnel("masscan", 10, 6)
            return ShardResult(
                report=ScanReport(), telemetry=telemetry.snapshot_state(),
                transport_stats={}, addresses=10,
            )

        parent = Telemetry()
        hub = ConsoleHub()
        hub.attach_telemetry(parent)
        hub.begin_sweep([{"index": 0, "addresses": 10}])
        hub.note_shard_done(0, payload())
        # mid-flight: the unfolded payload counts exactly once
        assert hub.funnel()["stages"]["masscan"]["in"] == 10.0

        parent.absorb_state(payload().telemetry)  # the canonical fold
        hub.finish_sweep(ScanReport())
        assert hub.funnel()["stages"]["masscan"]["in"] == 10.0
        # the straggler: same shard's payload delivered again, post-fold
        hub.note_shard_done(0, payload())
        assert hub.funnel()["stages"]["masscan"]["in"] == 10.0

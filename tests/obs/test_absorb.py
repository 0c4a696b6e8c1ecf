"""Unit tests for the shard fold across the telemetry pillars.

Each pillar decodes its snapshot in one method, ``absorb_state``, which
is also the merge path the parallel engine uses to fold shard-local
telemetry into the parent handle; these tests pin the pillar-level
contracts it relies on (span-id rebasing, counter and bucket-wise
histogram addition, event concatenation, flight top-K).
"""

import pytest

from repro.obs.events import EventLog
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry, series_key
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
        parent.absorb_state(shard.snapshot_state())
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
            return tracer.snapshot_state()

        a = Tracer()
        a.absorb_state(shard("one"))
        a.absorb_state(shard("two"))
        b = Tracer()
        b.absorb_state(shard("one"))
        b.absorb_state(shard("two"))
        assert [s.to_dict() for s in a.finished] == [
            s.to_dict() for s in b.finished
        ]

    def test_refuses_open_spans(self):
        parent, shard = Tracer(), Tracer()
        shard.start("still-open")
        with pytest.raises(ValueError):
            parent.absorb_state(shard.snapshot_state())


class TestMetricsAbsorb:
    def test_counters_fold(self):
        parent, shard = MetricsRegistry(), MetricsRegistry()
        parent.counter("probes", stage="masscan").inc(3)
        shard.counter("probes", stage="masscan").inc(4)
        shard.counter("probes", stage="tsunami").inc(1)
        parent.absorb_state(shard.snapshot_state())
        assert parent.counter_value("probes", stage="masscan") == 7
        assert parent.counter_value("probes", stage="tsunami") == 1

    def test_histograms_fold_bucket_wise(self):
        parent, shard = MetricsRegistry(), MetricsRegistry()
        parent.observed[series_key("latency")].extend((0.1, 0.5))
        shard.observed[series_key("latency")].extend((0.5, 2.0))
        parent.absorb_state(shard.snapshot_state())
        (merged,) = parent.snapshot_state()["histograms"]
        name, _, _, counts, total, count = merged
        assert (name, count) == ("latency", 4)
        assert counts[:4] == [0, 1, 2, 1]  # 0.25, 1.0 and 5.0 buckets
        assert total == pytest.approx(3.1)

    def test_histogram_bounds_mismatch_is_an_error(self):
        def state(bounds):
            return {"counters": [], "histograms": [
                ["latency", [], list(bounds), [1] + [0] * len(bounds), 0.5, 1],
            ]}

        parent = MetricsRegistry()
        parent.absorb_state(state((1.0, 2.0)))
        with pytest.raises(ValueError):
            parent.absorb_state(state((1.0, 5.0)))


class TestEventLogAbsorb:
    def test_events_concatenate_and_suppression_carries(self):
        parent = EventLog(min_level="info")
        shard = EventLog(min_level="info")
        parent.info("parallel", "sweep-start")
        shard.info("masscan", "batch")
        shard.debug("masscan", "noise")  # suppressed below min_level
        parent.absorb_state(shard.snapshot_state())
        assert [e.name for e in parent] == ["sweep-start", "batch"]
        assert parent.suppressed == shard.suppressed == 1


class TestTelemetryAbsorb:
    def test_absorb_state_round_trips_a_snapshot(self):
        """The engine folds *serialized* shard telemetry (the checkpoint
        form); folding a snapshot into an empty handle must reproduce the
        shard's own exports, and equal restoring it."""
        clock = SimClock()
        shard = Telemetry(clock=clock)
        shard.events.info("masscan", "batch", index=0)
        with shard.tracer.span("stage:masscan"):
            clock.advance(1.5)
        shard.funnel("masscan", 10, 4)
        folded, restored = Telemetry(), Telemetry()
        folded.absorb_state(shard.snapshot_state())
        restored.restore_state(shard.snapshot_state())
        for handle in (folded, restored):
            assert handle.export_jsonl() == shard.export_jsonl()
            assert handle.export_prometheus() == shard.export_prometheus()


class TestFoldEdgeCases:
    """Cross-process fold corners: colliding span ids, empty shards,
    top-K ties, and late payloads after the fold."""

    def test_identical_span_ids_from_two_shards_never_collide(self):
        """Process workers all number their spans from 1; absorbing two
        shards with byte-identical id ranges must rebase both."""
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        state = tracer.snapshot_state()
        parent = Tracer()
        with parent.span("sweep"):
            pass
        for _ in range(2):  # same serialized ids absorbed twice
            parent.absorb_state(state)
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
        parent.absorb_state(shard.snapshot_state())
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
        def shard(hosts, duration):
            recorder = FlightRecorder(capacity=2)
            for index, host in enumerate(hosts):
                recorder.record_probe(
                    "probe:http", host, 80, float(index), duration, {},
                    events=(), exchange_mark=0,
                )
            return recorder.snapshot_state()

        # four records, all tied at duration=5.0: the capacity-2 cut
        # lands inside the tie and must resolve by (start, host) alone
        a = shard(("203.0.113.1", "203.0.113.2"), 5.0)
        b = shard(("198.51.100.1", "198.51.100.2"), 5.0)

        forward = FlightRecorder(capacity=2)
        forward.absorb_state(a)
        forward.absorb_state(b)
        backward = FlightRecorder(capacity=2)
        backward.absorb_state(b)
        backward.absorb_state(a)
        assert forward.snapshot_state() == backward.snapshot_state()
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

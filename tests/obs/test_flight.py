"""Tests for the slowest-probe flight recorder."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.ipv4 import IPv4Address
from repro.obs.flight import DEFAULT_CAPACITY, FlightRecorder, _record_key
from repro.obs.telemetry import Telemetry
from repro.obs.trace import Span
from repro.util.clock import SimClock


def probe_span(duration, start=0.0, host="10.0.0.1", port=80, name="probe:x"):
    span = Span(
        span_id=0, parent_id=None, name=name, start=start,
        end=start + duration, attrs={"host": host, "port": port},
    )
    return span


def feed(flight, span, events=(), mark=None):
    """Hand ``flight`` the probe ``span`` shows, as the engine does: by field."""
    attrs = dict(span.attrs)
    flight.record_probe(
        span.name, attrs.pop("host"), attrs.pop("port"), span.start,
        span.duration, attrs, events,
        flight.exchange_mark() if mark is None else mark,
    )


def record_probe(flight, duration, **kwargs):
    feed(flight, probe_span(duration, **kwargs))


class TestRecorder:
    def test_keeps_the_slowest_capacity_records(self):
        flight = FlightRecorder(capacity=3)
        for duration in (1.0, 5.0, 2.0, 4.0, 3.0):
            record_probe(flight, duration)
        assert [r["duration"] for r in flight.records] == [5.0, 4.0, 3.0]
        assert len(flight) == 3
        assert flight.probes_seen == 5

    def test_ordering_is_value_determined(self):
        # equal durations tie-break on start, then host/port/name —
        # never on insertion order
        a = {"duration": 2.0, "start": 5.0, "host": "b", "port": 1, "name": "p"}
        b = {"duration": 2.0, "start": 1.0, "host": "a", "port": 1, "name": "p"}
        c = {"duration": 3.0, "start": 9.0, "host": "z", "port": 9, "name": "p"}
        assert sorted([a, b, c], key=_record_key) == [c, b, a]

    def test_compaction_preserves_the_top_k(self):
        flight = FlightRecorder(capacity=2)
        # push far past capacity * slack to force mid-stream compaction
        for index in range(50):
            record_probe(flight, float(index), start=float(index))
        assert [r["duration"] for r in flight.records] == [49.0, 48.0]
        assert flight.probes_seen == 50

    def test_absorb_keeps_the_global_top_k(self):
        durations = [float(d) for d in (9, 1, 8, 2, 7, 3, 6, 4, 5, 10)]
        whole = FlightRecorder(capacity=4)
        for index, duration in enumerate(durations):
            record_probe(whole, duration, start=float(index))

        left = FlightRecorder(capacity=4)
        right = FlightRecorder(capacity=4)
        for index, duration in enumerate(durations):
            shard = left if index < 5 else right
            record_probe(shard, duration, start=float(index))
        folded = FlightRecorder(capacity=4)
        folded.absorb_state(left.snapshot_state())
        folded.absorb_state(right.snapshot_state())

        assert folded.records == whole.records
        assert folded.probes_seen == whole.probes_seen == 10

    def test_exchange_windows_are_per_probe(self):
        flight = FlightRecorder()
        flight.note_exchange("/stray", status=200)  # before any window
        mark = flight.exchange_mark()
        flight.note_exchange("/login", status=401, body_bytes=12)
        flight.note_exchange("/api", error="ConnectionReset")
        feed(flight, probe_span(1.0), mark=mark)
        (record,) = flight.records
        assert record["exchanges"] == [
            {"path": "/login", "status": 401, "body_bytes": 12},
            {"path": "/api", "error": "ConnectionReset"},
        ]
        # the consumed window is gone; the next probe starts clean
        assert flight.exchange_mark() == 1  # only the stray entry remains

    def test_record_keeps_host_and_port_apart_from_attrs(self):
        flight = FlightRecorder()
        flight.record_probe(
            "probe:x", IPv4Address.parse("10.0.0.1"), 80, 0.0, 1.0,
            {"verdict": "mav"}, (), 0,
        )
        (record,) = flight.records
        assert record["host"] == "10.0.0.1"
        assert record["port"] == 80
        assert record["attrs"] == {"verdict": "mav"}

    def test_snapshot_restore_round_trip(self):
        flight = FlightRecorder(capacity=2)
        for duration in (1.0, 3.0, 2.0):
            record_probe(flight, duration)
        state = json.loads(json.dumps(flight.snapshot_state()))
        restored = FlightRecorder()
        restored.restore_state(state)
        assert restored.capacity == 2
        assert restored.probes_seen == 3
        assert restored.records == flight.records
        assert restored.snapshot_state() == flight.snapshot_state()

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_render_mentions_every_kept_probe(self):
        flight = FlightRecorder(capacity=2)
        record_probe(flight, 2.0, host="10.0.0.1")
        record_probe(flight, 1.0, host="10.0.0.2")
        text = flight.render()
        assert "10.0.0.1" in text and "10.0.0.2" in text


class BuildSortTrim:
    """The recorder before admission, kept as the oracle: every probe is
    built into a dict, the buffer is sorted and trimmed when it overflows
    and on every fold."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.buffer = []
        self.probes_seen = 0

    def record(self, span, tag):
        self.probes_seen += 1
        self.buffer.append({
            "name": span.name,
            "host": str(span.attrs.get("host", "")),
            "port": span.attrs.get("port", 0),
            "start": span.start,
            "duration": span.duration,
            "attrs": {"tag": tag},
            "exchanges": [],
            "events": [],
        })
        if len(self.buffer) > self.capacity * 4:
            self.compact()

    def compact(self):
        self.buffer.sort(key=_record_key)
        del self.buffer[self.capacity:]

    def fold(self, other):
        self.buffer.extend(dict(r) for r in other.buffer)
        self.probes_seen += other.probes_seen
        self.compact()

    def dump(self):
        return {
            "capacity": self.capacity,
            "probes_seen": self.probes_seen,
            "records": sorted(self.buffer, key=_record_key)[: self.capacity],
        }


#: few distinct values, so ties at the capacity boundary are the rule; a
#: clock-less sweep (every duration 0) is the all-ties case
probes = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 0.0, 0.5, 1.0, 2.5]),  # duration
        st.sampled_from([0.0, 1.0]),                       # start
        st.sampled_from(["10.0.0.1", "10.0.0.2", "10.0.0.3"]),
        st.sampled_from([80, 443]),
        st.sampled_from(["probe:a", "probe:b"]),
    ),
    max_size=120,
)


class TestAdmission:
    """A probe that cannot make the top-K is counted but never built."""

    @settings(max_examples=200, deadline=None)
    @given(
        probes=probes,
        capacity=st.integers(1, 5),
        cuts=st.lists(st.integers(0, 120), max_size=4),
        restore_at=st.one_of(st.none(), st.integers(0, 120)),
    )
    def test_admission_equals_build_sort_trim(
        self, probes, capacity, cuts, restore_at
    ):
        """Random durations with ties, the stream cut into shards at
        random points and folded in order, and a snapshot/restore (through
        JSON) somewhere in the middle: same snapshot as building every
        record, sorting and trimming."""
        bounds = sorted({min(cut, len(probes)) for cut in cuts} | {len(probes)})
        folded, oracle = FlightRecorder(capacity), BuildSortTrim(capacity)
        shard, oracle_shard = FlightRecorder(capacity), BuildSortTrim(capacity)
        for index, (duration, start, host, port, name) in enumerate(probes):
            if index == restore_at:
                state = json.loads(json.dumps(shard.snapshot_state()))
                shard = FlightRecorder()
                shard.restore_state(state)
            span = probe_span(duration, start=start, host=host, port=port, name=name)
            # the tag tells tied records apart: only arrival order may
            span.attrs["tag"] = index
            feed(shard, span)
            oracle_shard.record(span, index)
            if index + 1 in bounds:
                folded.absorb_state(shard.snapshot_state())
                oracle.fold(oracle_shard)
                shard, oracle_shard = FlightRecorder(capacity), BuildSortTrim(capacity)
        assert folded.snapshot_state() == oracle.dump()

    @settings(max_examples=200, deadline=None)
    @given(
        probes=st.lists(
            st.tuples(
                # string order of these is not their numeric order
                st.sampled_from([
                    "10.0.0.9", "10.0.0.10", "10.0.0.100", "9.255.255.255",
                    "100.0.0.1", "20.0.0.1", "2.0.0.1",
                ]),
                st.sampled_from([80, 443]),
                st.sampled_from(["probe:a", "probe:b"]),
            ),
            max_size=150,
        ),
        capacity=st.integers(1, 5),
    )
    def test_lazy_tie_break_in_a_clockless_sweep(self, probes, capacity):
        """Without a clock every duration and start is zero, every probe
        ties with the bar on ``(-duration, start)`` and the rendered host
        decides.  Fed as the engine feeds it — the address object, rendered
        only if it comes to that — against eagerly built records."""
        flight, oracle = FlightRecorder(capacity), BuildSortTrim(capacity)
        for index, (host, port, name) in enumerate(probes):
            flight.record_probe(
                name, IPv4Address.parse(host), port, 0.0, 0.0,
                {"tag": index}, (), flight.exchange_mark(),
            )
            oracle.record(probe_span(0.0, host=host, port=port, name=name), index)
        assert flight.snapshot_state() == oracle.dump()

    def test_the_host_is_rendered_only_on_a_tie(self):
        flight = FlightRecorder(capacity=1)
        for index in range(8):  # compacts: the bar is (-5.0, 0.0, ...)
            record_probe(flight, 5.0, start=float(index))

        class Unrendered:
            def __str__(self):
                raise AssertionError("the host was rendered")

        flight.record_probe("probe:x", Unrendered(), 80, 0.0, 1.0, {}, (), 0)
        flight.record_probe("probe:x", Unrendered(), 80, 1.0, 5.0, {}, (), 0)
        assert flight.probes_seen == 10
        with pytest.raises(AssertionError, match="rendered"):  # a tie, or a win
            flight.record_probe("probe:x", Unrendered(), 80, 0.0, 5.0, {}, (), 0)
        with pytest.raises(AssertionError, match="rendered"):
            flight.record_probe("probe:x", Unrendered(), 80, 0.0, 9.0, {}, (), 0)

    def test_a_rejected_probe_builds_nothing_and_clears_its_window(self):
        flight = FlightRecorder(capacity=1)
        for index in range(8):  # past capacity * slack: compacts, sets the bar
            record_probe(flight, 5.0, start=float(index))
        held = len(flight._records)
        mark = flight.exchange_mark()
        flight.note_exchange("/late", status=200)

        class Exploding:
            """An event whose serialisation would be noticed."""

            def to_dict(self):
                raise AssertionError("a rejected probe was built")

        feed(flight, probe_span(1.0), (Exploding(),), mark)
        assert len(flight._records) == held
        assert flight.probes_seen == 9
        assert flight.exchange_mark() == mark  # its exchanges are gone


class TestTelemetryTap:
    """The recorder fed through the telemetry handle's probe window."""

    def run_probe(self, telemetry, clock, slug, host, duration):
        window = telemetry.probe_start()
        telemetry.events.info("tsunami", "attempt", host=host)
        telemetry.flight.note_exchange("/check", status=200, body_bytes=5)
        clock.advance(duration)
        measured = telemetry.probe_end(
            window, f"probe:{slug}", IPv4Address.parse(host), 80,
            {"verdict": "clean"},
        )
        assert measured == duration

    def test_probe_spans_feed_the_recorder(self):
        clock = SimClock()
        telemetry = Telemetry(clock=clock)
        with telemetry.tracer.span("sweep"):
            self.run_probe(telemetry, clock, "jenkins", "10.0.0.1", 3.0)
            self.run_probe(telemetry, clock, "docker", "10.0.0.2", 5.0)
        records = telemetry.flight.records
        assert [r["name"] for r in records] == ["probe:docker", "probe:jenkins"]
        assert records[0]["duration"] == 5.0
        assert records[0]["exchanges"] == [
            {"path": "/check", "status": 200, "body_bytes": 5}
        ]
        assert [e["event"] for e in records[0]["events"]] == ["attempt"]
        assert records[0]["host"] == "10.0.0.2" and records[0]["port"] == 80
        assert records[0]["attrs"] == {"verdict": "clean"}
        # the same two probes are the sweep's children in the span record
        sweep = telemetry.tracer.spans_named("sweep")[0]
        assert [
            (s.name, s.attrs["host"], s.duration)
            for s in telemetry.tracer.children_of(sweep)
        ] == [("probe:jenkins", "10.0.0.1", 3.0), ("probe:docker", "10.0.0.2", 5.0)]

    def test_non_probe_spans_are_ignored(self):
        telemetry = Telemetry(clock=SimClock())
        with telemetry.tracer.span("sweep"):
            with telemetry.tracer.span("batch"):
                pass
        assert telemetry.flight.probes_seen == 0

    def test_default_capacity_is_bounded(self):
        clock = SimClock()
        telemetry = Telemetry(clock=clock)
        with telemetry.tracer.span("sweep"):
            for index in range(DEFAULT_CAPACITY * 10):
                self.run_probe(
                    telemetry, clock, "x", f"10.0.{index // 250}.{index % 250}",
                    float(index),
                )
        assert len(telemetry.flight) == DEFAULT_CAPACITY
        assert telemetry.flight.probes_seen == DEFAULT_CAPACITY * 10

    def test_absorb_merges_shard_recorders(self):
        clock_a, clock_b = SimClock(), SimClock()
        a, b = Telemetry(clock=clock_a), Telemetry(clock=clock_b)
        with a.tracer.span("sweep"):
            self.run_probe(a, clock_a, "jenkins", "10.0.0.1", 9.0)
        with b.tracer.span("sweep"):
            self.run_probe(b, clock_b, "docker", "10.0.0.2", 4.0)
        a.absorb_state(b.snapshot_state())
        assert [r["name"] for r in a.flight.records] == [
            "probe:jenkins", "probe:docker",
        ]
        assert a.flight.probes_seen == 2

    def test_flight_survives_snapshot_restore(self):
        clock = SimClock()
        telemetry = Telemetry(clock=clock)
        with telemetry.tracer.span("sweep"):
            self.run_probe(telemetry, clock, "jenkins", "10.0.0.1", 2.0)
        state = json.loads(json.dumps(telemetry.snapshot_state()))
        restored = Telemetry(clock=SimClock())
        restored.restore_state(state)
        assert (
            restored.flight.snapshot_state() == telemetry.flight.snapshot_state()
        )

    def test_restore_reads_no_snapshot_without_a_flight_block(self):
        """Every snapshot carries all four pillars and the journal refuses
        every format but its own: a missing block is damage."""
        state = Telemetry().snapshot_state()
        state.pop("flight")
        with pytest.raises(KeyError):
            Telemetry().restore_state(state)
        with pytest.raises(KeyError):
            Telemetry().absorb_state(state)

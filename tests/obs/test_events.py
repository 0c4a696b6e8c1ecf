"""Tests for the structured event log."""

import json

import pytest

from repro.net.ipv4 import IPv4Address
from repro.obs.events import Event, EventLog
from repro.util.clock import SimClock


class TestEvent:
    def test_to_dict_omits_empty_optionals(self):
        event = Event(ts=1.0, level="info", stage="pipeline", name="x")
        payload = event.to_dict()
        assert "host" not in payload
        assert "fields" not in payload

    def test_round_trip(self):
        event = Event(
            ts=2.5, level="warn", stage="retry", name="circuit-open",
            host="1.2.3.4", fields=(("cooldown", 60.0), ("scope", "host")),
        )
        assert Event.from_dict(event.to_dict()) == event

    def test_to_json_is_stable(self):
        event = Event(
            ts=0.0, level="info", stage="s", name="n",
            fields=(("a", 1), ("b", 2)),
        )
        assert event.to_json() == event.to_json()
        assert json.loads(event.to_json())["event"] == "n"


class TestEventLog:
    def test_clock_stamps_events(self):
        clock = SimClock()
        log = EventLog(clock=clock)
        clock.advance(42)
        event = log.info("pipeline", "sweep-start")
        assert event.ts == 42.0

    def test_no_clock_means_zero_timestamps(self):
        log = EventLog()
        assert log.info("s", "n").ts == 0.0

    def test_level_filter_suppresses_and_counts(self):
        log = EventLog(min_level="info")
        assert log.debug("chaos", "fault") is None
        assert len(log) == 0
        assert log.suppressed == 1
        assert log.info("pipeline", "batch-complete") is not None
        assert len(log) == 1

    def test_wants_answers_for_emit_and_counts_like_it(self):
        """Callers ask before building a debug event's arguments; a "no"
        is the suppression, counted once, as the emit would have been."""
        log = EventLog(min_level="info")
        assert not log.wants("debug")
        assert log.suppressed == 1 and len(log) == 0
        assert log.wants("info") and log.wants("error")
        assert log.suppressed == 1
        loud = EventLog(min_level="debug")
        assert loud.wants("debug") and loud.suppressed == 0
        with pytest.raises(KeyError):
            log.wants("verbose")

    def test_debug_level_keeps_everything(self):
        log = EventLog(min_level="debug")
        log.debug("chaos", "fault")
        assert len(log) == 1
        assert log.suppressed == 0

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            EventLog(min_level="verbose")
        with pytest.raises(ValueError):
            EventLog().emit("loud", "s", "n")

    def test_host_is_stringified(self):
        log = EventLog()
        event = log.info("s", "n", host=IPv4Address.parse("10.0.0.1"))
        assert event.host == "10.0.0.1"

    def test_select(self):
        log = EventLog()
        log.info("pipeline", "batch-complete")
        log.warn("retry", "circuit-open")
        log.info("pipeline", "sweep-complete")
        assert len(log.select(stage="pipeline")) == 2
        assert len(log.select(name="circuit-open")) == 1
        assert len(log.select(level="warn")) == 1
        assert len(log.select(stage="pipeline", name="sweep-complete")) == 1

    def test_to_jsonl(self):
        log = EventLog()
        assert log.to_jsonl() == ""
        log.info("s", "a")
        log.info("s", "b")
        text = log.to_jsonl()
        assert text.endswith("\n")
        assert len(text.strip().split("\n")) == 2

    def test_snapshot_restore_round_trip(self):
        log = EventLog(min_level="info")
        log.debug("chaos", "fault")  # suppressed
        log.info("pipeline", "batch-complete", index=0)
        state = json.loads(json.dumps(log.snapshot_state()))
        other = EventLog()
        other.restore_state(state)
        assert other.suppressed == 1
        assert other.to_jsonl() == log.to_jsonl()

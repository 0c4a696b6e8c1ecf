"""The structured event log.

Replaces ad-hoc counters and ``logging`` calls with append-only records
that carry *when* (SimClock seconds), *how bad* (level), *where* (stage),
*who* (host) and arbitrary structured fields.  Records serialise to one
JSON object per line with sorted keys, so two identical runs produce
byte-identical JSONL dumps — the property the checkpoint/resume
acceptance test pins.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator

from repro.util.clock import SimClock

#: severity ranks; events below the log's minimum level are suppressed
LEVELS: dict[str, int] = {"debug": 10, "info": 20, "warn": 30, "error": 40}


@dataclass(frozen=True)
class Event:
    """One structured log record."""

    ts: float
    level: str
    stage: str
    name: str
    host: str | None = None
    fields: tuple[tuple[str, object], ...] = ()

    def to_dict(self) -> dict:
        payload: dict[str, object] = {
            "ts": self.ts,
            "level": self.level,
            "stage": self.stage,
            "event": self.name,
        }
        if self.host is not None:
            payload["host"] = self.host
        if self.fields:
            payload["fields"] = dict(self.fields)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "Event":
        return cls(
            ts=payload["ts"],
            level=payload["level"],
            stage=payload["stage"],
            name=payload["event"],
            host=payload.get("host"),
            fields=tuple(sorted(payload.get("fields", {}).items())),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(", ", ": "))


class EventLog:
    """Append-only, level-filtered, clock-stamped event collector."""

    def __init__(
        self, clock: SimClock | None = None, min_level: str = "info"
    ) -> None:
        if min_level not in LEVELS:
            raise ValueError(f"unknown level {min_level!r}")
        self.clock = clock
        self.min_level = min_level
        self._events: list[Event] = []
        #: records dropped by the level filter (kept for accounting)
        self.suppressed = 0

    def _now(self) -> float:
        return self.clock.now if self.clock is not None else 0.0

    def wants(self, level: str) -> bool:
        """Would a record at ``level`` be kept?  Ask before building the
        arguments of an event that is usually filtered out.  A "no" is
        counted as suppressed, exactly as emitting the record would have
        been, so skip the emit on it."""
        if LEVELS[level] >= LEVELS[self.min_level]:
            return True
        self.suppressed += 1
        return False

    def emit(
        self,
        level: str,
        stage: str,
        name: str,
        host: object | None = None,
        **fields: object,
    ) -> Event | None:
        """Append one record; returns it, or None when filtered out."""
        if level not in LEVELS:
            raise ValueError(f"unknown level {level!r}")
        if LEVELS[level] < LEVELS[self.min_level]:
            self.suppressed += 1
            return None
        event = Event(
            ts=self._now(),
            level=level,
            stage=stage,
            name=name,
            host=None if host is None else str(host),
            fields=tuple(sorted(fields.items())),
        )
        self._events.append(event)
        return event

    def debug(self, stage: str, name: str, host: object | None = None, **fields):
        return self.emit("debug", stage, name, host, **fields)

    def info(self, stage: str, name: str, host: object | None = None, **fields):
        return self.emit("info", stage, name, host, **fields)

    def warn(self, stage: str, name: str, host: object | None = None, **fields):
        return self.emit("warn", stage, name, host, **fields)

    def error(self, stage: str, name: str, host: object | None = None, **fields):
        return self.emit("error", stage, name, host, **fields)

    # -- access --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    @property
    def events(self) -> tuple[Event, ...]:
        return tuple(self._events)

    def since(self, mark: int) -> list[Event]:
        """The records appended after the log held ``mark`` of them."""
        return self._events[mark:]

    def select(
        self,
        stage: str | None = None,
        name: str | None = None,
        level: str | None = None,
    ) -> list[Event]:
        """Filter recorded events (all criteria conjunctive)."""
        return [
            e
            for e in self._events
            if (stage is None or e.stage == stage)
            and (name is None or e.name == name)
            and (level is None or e.level == level)
        ]

    def to_jsonl(self) -> str:
        """One JSON object per line, trailing newline when non-empty."""
        if not self._events:
            return ""
        return "\n".join(e.to_json() for e in self._events) + "\n"

    # -- state ---------------------------------------------------------------

    def snapshot_state(self, since: int = 0) -> dict:
        """The log's state; ``since`` skips records a checkpoint journal
        already holds (the log is append-only)."""
        return {
            "min_level": self.min_level,
            "suppressed": self.suppressed,
            "events": [e.to_dict() for e in self._events[since:]],
        }

    def absorb_state(self, state: dict) -> None:
        """Append a snapshot's records (the decoder, and the shard-merge
        step).

        Records keep their own shard-local timestamps; ordering within the
        merged log is fold order, which the parallel engine keeps
        canonical by absorbing shards in index order.
        """
        self._events.extend(Event.from_dict(p) for p in state["events"])
        self.suppressed += state["suppressed"]

    def restore_state(self, state: dict) -> None:
        self.min_level = state["min_level"]
        self._events = []
        self.suppressed = 0
        self.absorb_state(state)

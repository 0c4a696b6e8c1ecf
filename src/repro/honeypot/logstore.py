"""The append-only central log (the paper's Elasticsearch server).

All honeypots ship their events here so "an attacker [cannot change] the
log afterwards".  Tamper evidence is modelled with a hash chain: every
record carries the digest of its predecessor, and :meth:`verify_integrity`
recomputes the chain.  Queries cover what the analysis needs: filter by
honeypot, kind, and time range.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

from repro.util.errors import LogIntegrityError


@dataclass(frozen=True)
class LogRecord:
    """An event wrapped with its position in the hash chain."""

    sequence: int
    digest: str
    previous_digest: str
    event: object  # NetworkEvent | AuditEvent (duck-typed: .kind, .honeypot, .timestamp)


def _digest(previous: str, event: object) -> str:
    return hashlib.sha256((previous + repr(event)).encode()).hexdigest()


class CentralLogStore:
    """Append-only event store with hash-chain integrity."""

    GENESIS = "0" * 64

    def __init__(self) -> None:
        self._records: list[LogRecord] = []

    def append(self, event: object) -> LogRecord:
        previous = self._records[-1].digest if self._records else self.GENESIS
        record = LogRecord(
            sequence=len(self._records),
            digest=_digest(previous, event),
            previous_digest=previous,
            event=event,
        )
        self._records.append(record)
        return record

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> tuple[LogRecord, ...]:
        return tuple(self._records)

    def events(
        self,
        kind: str | None = None,
        honeypot: str | None = None,
        since: float | None = None,
        until: float | None = None,
        predicate: Callable[[object], bool] | None = None,
    ) -> list[object]:
        """Query events with optional filters (all conjunctive)."""
        out = []
        for record in self._records:
            event = record.event
            if kind is not None and getattr(event, "kind", None) != kind:
                continue
            if honeypot is not None and getattr(event, "honeypot", None) != honeypot:
                continue
            timestamp = getattr(event, "timestamp", None)
            if since is not None and (timestamp is None or timestamp < since):
                continue
            if until is not None and (timestamp is None or timestamp > until):
                continue
            if predicate is not None and not predicate(event):
                continue
            out.append(event)
        return out

    def audit_events(self, **filters: object) -> list[object]:
        return self.events(kind="audit", **filters)  # type: ignore[arg-type]

    def network_events(self, **filters: object) -> list[object]:
        return self.events(kind="network", **filters)  # type: ignore[arg-type]

    def verify_integrity(self) -> None:
        """Recompute the hash chain; raise if any record was altered."""
        previous = self.GENESIS
        for index, record in enumerate(self._records):
            if record.sequence != index:
                raise LogIntegrityError(f"sequence gap at {index}")
            if record.previous_digest != previous:
                raise LogIntegrityError(f"chain break at {index}")
            expected = _digest(previous, record.event)
            if record.digest != expected:
                raise LogIntegrityError(f"record {index} was modified")
            previous = record.digest

    def honeypots_seen(self) -> set[str]:
        return {
            getattr(r.event, "honeypot")
            for r in self._records
            if getattr(r.event, "honeypot", None) is not None
        }

"""The flight recorder: a bounded record of the slowest probes.

An end-of-run report says a sweep took N simulated hours; it cannot say
*which* probes burned them.  The flight recorder keeps, per telemetry
handle (i.e. per shard), the ``capacity`` slowest stage-III probes with
their full context:

* the probe itself (path, host, port, SimClock window, verdict);
* every HTTP exchange the plugin issued (path, status, body size, or
  the transport error that ate the request);
* every event logged while the probe was open — retry attempts, circuit
  breaker trips, chaos faults, quarantine strikes land here, so a slow
  probe arrives with its excuse attached.

Determinism rules match the rest of :mod:`repro.obs`: durations and
ordering come from the SimClock only, records fold in canonical shard
order (:meth:`FlightRecorder.absorb_state` keeps the global slowest
``capacity``), and the recorder snapshots/restores through the
checkpoint layer so a killed sweep resumes with its record intact.  The
recorder is *not* part of the canonical report or telemetry JSONL — its
snapshot is also its export (``snapshot_state``/``render``) for
artifacts and the operations console.
"""

from __future__ import annotations

from typing import Sequence

from repro.util.tables import Table

#: slowest probes kept per recorder (and after every fold)
DEFAULT_CAPACITY = 16

#: compaction threshold multiplier: the buffer may grow to
#: ``capacity * _SLACK`` before it is sorted and trimmed
_SLACK = 4


def _record_key(record: dict) -> tuple:
    """Canonical "slowest first" ordering, fully value-determined.

    Slower probes first; ties broken by the probe's own coordinates so
    the order never depends on fold or insertion order.
    """
    return (
        -record["duration"],
        record["start"],
        record.get("host") or "",
        record.get("port") or 0,
        record["name"],
    )


def _exchange_entry(
    path: str, status: int | None, body_bytes: int | None, error: str | None
) -> dict:
    entry: dict = {"path": path}
    if status is not None:
        entry["status"] = status
    if body_bytes is not None:
        entry["body_bytes"] = body_bytes
    if error is not None:
        entry["error"] = error
    return entry


class FlightRecorder:
    """Bounded, deterministic ring of the slowest probe records."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be at least 1")
        self.capacity = capacity
        self._records: list[dict] = []
        #: key of the worst record the last compaction kept, once
        #: ``capacity`` are held, split ``(key[:2], key[2:])``: the
        #: admission bar (see :meth:`record_probe`)
        self._bar: tuple[tuple, tuple] | None = None
        #: ``(path, status, body_bytes, error)`` of every exchange noted
        #: since the last probe window closed (transient; never serialised
        #: — probe windows close before checkpoints land)
        self._exchanges: list[tuple] = []
        #: probes seen in total, including ones compacted away
        self.probes_seen = 0

    # -- exchange intake (wired through PluginContext) ------------------------

    def exchange_mark(self) -> int:
        """Position marker delimiting one probe's exchange window."""
        return len(self._exchanges)

    def note_exchange(
        self,
        path: str,
        status: int | None = None,
        body_bytes: int | None = None,
        error: str | None = None,
    ) -> None:
        """One plugin HTTP exchange (or its transport failure)."""
        self._exchanges.append((path, status, body_bytes, error))

    # -- probe intake ----------------------------------------------------------

    def record_probe(
        self,
        name: str,
        host: object,
        port: int | None,
        start: float,
        duration: float,
        attrs: dict[str, object],
        events: Sequence,
        exchange_mark: int,
    ) -> None:
        """Capture one finished probe with its window context: the events
        logged and the exchanges noted (from ``exchange_mark`` on) while
        it ran.  ``host`` is anything whose ``str`` is the dotted quad.

        Admission first: ``capacity`` records that sort at or before the
        bar are already held, records are only ever added, and a tie goes
        to the earlier arrival (the sort is stable) — so a probe whose
        key does not sort strictly before the bar can never be kept, and
        is counted without being built.  ``(-duration, start)`` settles
        that for nearly every probe of a clocked sweep; the host is only
        rendered on a tie there — which, in a clock-less sweep, where
        every duration is zero, is every probe.
        """
        self.probes_seen += 1
        bar = self._bar
        if bar is not None:
            head = (-duration, start)
            if head > bar[0] or (
                head == bar[0] and (str(host), port or 0, name) >= bar[1]
            ):
                del self._exchanges[exchange_mark:]
                return
        self._records.append({
            "name": name,
            "host": str(host),
            "port": port,
            "start": start,
            "duration": duration,
            "attrs": {k: attrs[k] for k in sorted(attrs)},
            "exchanges": [
                _exchange_entry(*e) for e in self._exchanges[exchange_mark:]
            ],
            "events": [e.to_dict() for e in events],
        })
        del self._exchanges[exchange_mark:]
        if len(self._records) > self.capacity * _SLACK:
            self._compact()

    def _compact(self) -> None:
        self._records.sort(key=_record_key)
        del self._records[self.capacity:]
        if len(self._records) == self.capacity:
            key = _record_key(self._records[-1])
            self._bar = (key[:2], key[2:])

    # -- access ----------------------------------------------------------------

    @property
    def records(self) -> list[dict]:
        """The slowest ``capacity`` records, slowest first."""
        return sorted(self._records, key=_record_key)[: self.capacity]

    def __len__(self) -> int:
        return min(len(self._records), self.capacity)

    # -- exports ---------------------------------------------------------------

    def table(self, title: str = "Flight recorder (slowest probes)") -> Table:
        table = Table(
            title,
            ("probe", "host", "port", "duration", "exchanges", "events"),
        )
        for record in self.records:
            table.add_row(
                record["name"],
                record["host"],
                record["port"],
                f"{record['duration']:.3f}",
                len(record["exchanges"]),
                len(record["events"]),
            )
        return table

    def render(self) -> str:
        return self.table().render()

    # -- state ---------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Records only — exchange windows never span a checkpoint."""
        return {
            "capacity": self.capacity,
            "probes_seen": self.probes_seen,
            "records": self.records,
        }

    def absorb_state(self, state: dict) -> None:
        """Fold a snapshot's records in (the decoder, and the shard-merge
        step).

        Called in canonical shard order by the telemetry fold; the merged
        record keeps the globally slowest ``capacity`` probes under the
        same value-determined ordering, so the result is identical for
        every worker count.
        """
        self._records.extend(dict(r) for r in state["records"])
        self.probes_seen += state["probes_seen"]
        self._compact()

    def restore_state(self, state: dict) -> None:
        self.capacity = state["capacity"]
        self._records = []
        self.probes_seen = 0
        self._exchanges = []
        self._bar = None
        self.absorb_state(state)

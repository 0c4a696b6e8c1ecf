"""One handle bundling the event log, tracer, and metrics registry.

Every instrumented layer — stage I-III, the retry executor, the chaos
transport, the honeypot fleet — shares a single :class:`Telemetry`, so
cross-layer views (the stage funnel, retry counters next to chaos fault
counters) come for free.  Its state has one encoder (``snapshot_state``)
and one decoder (``absorb_state``, which is also the shard fold), each
pillar by pillar; a restore is the decoder run into emptied pillars.  It
exports three ways:

* :meth:`Telemetry.export_jsonl` — the full record, one JSON object per
  line (events and finished spans);
* :meth:`Telemetry.export_prometheus` — text exposition of the registry;
* :meth:`Telemetry.funnel_table` — the human-readable stage funnel.
"""

from __future__ import annotations

import json

from repro.net.ipv4 import IPv4Address
from repro.obs.events import EventLog
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry, series_key
from repro.obs.trace import END, START, Tracer, row_to_dict
from repro.util.clock import SimClock
from repro.util.tables import Table

#: one line of the JSONL export (sorting the keys, attrs included)
_encode = json.JSONEncoder(sort_keys=True, separators=(", ", ": ")).encode

#: pipeline stages in funnel order: the funnel's and the coverage ledger's
FUNNEL_STAGES: tuple[str, ...] = ("masscan", "prefilter", "tsunami")

#: counter family holding the per-stage host flow
FUNNEL_METRIC = "funnel_hosts_total"

#: (stage, flow) -> the funnel series' key, built once: the funnel runs
#: three times a batch, so it writes ``pending`` as every other per-batch
#: writer does, with no label sorting per charge
_FUNNEL_KEYS = {
    (stage, flow): series_key(FUNNEL_METRIC, stage=stage, flow=flow)
    for stage in FUNNEL_STAGES
    for flow in ("in", "out", "dropped", "quarantined")
}


class Telemetry:
    """Shared observability handle: events + spans + metrics + flight."""

    def __init__(
        self,
        clock: SimClock | None = None,
        events_level: str = "info",
    ) -> None:
        self.clock = clock
        self.events = EventLog(clock=clock, min_level=events_level)
        self.tracer = Tracer(clock=clock)
        self.metrics = MetricsRegistry()
        self.flight = FlightRecorder()

    # -- cross-pillar helpers ------------------------------------------------

    def funnel(
        self, stage: str, hosts_in: int, hosts_out: int, quarantined: int = 0
    ) -> None:
        """Charge one stage's host flow: in = out + dropped + quarantined.

        The ``quarantined`` flow is only materialised when non-zero, so
        sweeps without a supervisor export exactly the series they always
        did.
        """
        if hosts_out + quarantined > hosts_in:
            raise ValueError(
                f"stage {stage!r} emitted more hosts "
                f"({hosts_out} out + {quarantined} quarantined) "
                f"than it received ({hosts_in})"
            )
        pending = self.metrics.pending
        flows = [
            ("in", hosts_in),
            ("out", hosts_out),
            ("dropped", hosts_in - hosts_out - quarantined),
        ]
        if quarantined:
            flows.append(("quarantined", quarantined))
        for flow, hosts in flows:
            key = _FUNNEL_KEYS[stage, flow]
            pending[key] = pending.get(key, 0) + hosts

    def probe_start(self) -> tuple:
        """Open a probe window; hand the result to :meth:`probe_end`.

        The window is the probe's leaf span plus its flight context:
        every event logged and every plugin exchange noted until it
        closes.  Probes are leaves (see :mod:`repro.obs.trace`): open
        nothing else on this handle's tracer until the window is closed.
        """
        return (
            self.tracer.leaf_start(),
            len(self.events),
            self.flight.exchange_mark(),
        )

    def probe_end(
        self,
        window: tuple,
        name: str,
        ip: IPv4Address,
        port: int,
        attrs: dict[str, object],
    ) -> float:
        """Close a probe window: one span row, and the flight recorder's
        admission test.  Returns the probe's SimClock duration.  ``attrs``
        is recorded as given, not copied: pass a mapping nobody writes to.
        """
        opened, event_mark, exchange_mark = window
        row = self.tracer.leaf(name, opened, ip.value, port, attrs)
        duration = row[END] - row[START]
        self.flight.record_probe(
            name, ip, port, row[START], duration, attrs,
            self.events.since(event_mark), exchange_mark,
        )
        return duration

    # -- exporters -----------------------------------------------------------

    def export_jsonl(self) -> str:
        """Events then finished spans, one JSON object per line."""
        lines = [_encode({"kind": "event", **e.to_dict()}) for e in self.events]
        lines.extend(
            _encode({"kind": "span", **row_to_dict(row)})
            for row in self.tracer.finished.rows
        )
        return "\n".join(lines) + ("\n" if lines else "")

    def export_prometheus(self) -> str:
        return self.metrics.to_prometheus()

    def funnel_table(self, title: str = "Stage funnel (hosts)") -> Table:
        table = Table(
            title, ("stage", "hosts in", "hosts out", "dropped", "quarantined")
        )
        value = self.metrics.counter_value
        for stage in FUNNEL_STAGES:
            table.add_row(
                stage,
                int(value(FUNNEL_METRIC, stage=stage, flow="in")),
                int(value(FUNNEL_METRIC, stage=stage, flow="out")),
                int(value(FUNNEL_METRIC, stage=stage, flow="dropped")),
                int(value(FUNNEL_METRIC, stage=stage, flow="quarantined")),
            )
        return table

    def export(self, fmt: str) -> str:
        """Dispatch by format name (the CLI's ``--telemetry`` values)."""
        if fmt == "jsonl":
            return self.export_jsonl()
        if fmt == "prometheus":
            return self.export_prometheus()
        if fmt == "funnel":
            return self.funnel_table().render() + "\n"
        raise ValueError(f"unknown telemetry format {fmt!r}")

    # -- state ---------------------------------------------------------------

    def snapshot_state(self, events_since: int = 0, spans_since: int = 0) -> dict:
        """All four pillars; the two append-only records (events,
        finished spans) start at the given marks."""
        return {
            "events": self.events.snapshot_state(events_since),
            "tracer": self.tracer.snapshot_state(spans_since),
            "metrics": self.metrics.snapshot_state(),
            "flight": self.flight.snapshot_state(),
        }

    def absorb_state(self, state: dict) -> None:
        """Fold a snapshot in, pillar by pillar, each in place.

        This is the sanctioned merge step for shard-local telemetry: the
        parallel engine gives every shard its own :class:`Telemetry` and
        folds the snapshots on the main thread in canonical shard order,
        so the merged events/spans/metrics are identical for any worker
        count.
        """
        self.events.absorb_state(state["events"])
        self.tracer.absorb_state(state["tracer"])
        self.metrics.absorb_state(state["metrics"])
        self.flight.absorb_state(state["flight"])

    def restore_state(self, state: dict) -> None:
        self.events.restore_state(state["events"])
        self.tracer.restore_state(state["tracer"])
        self.metrics.restore_state(state["metrics"])
        self.flight.restore_state(state["flight"])

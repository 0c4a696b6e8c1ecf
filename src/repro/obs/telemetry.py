"""One handle bundling the event log, tracer, and metrics registry.

Every instrumented layer — stage I-III, the retry executor, the chaos
transport, the honeypot fleet — shares a single :class:`Telemetry`, so
cross-layer views (the stage funnel, retry counters next to chaos fault
counters) come for free.  The handle snapshots/restores as one unit for
checkpoint/resume and exports three ways:

* :meth:`Telemetry.export_jsonl` — the full record, one JSON object per
  line (events and finished spans);
* :meth:`Telemetry.export_prometheus` — text exposition of the registry;
* :meth:`Telemetry.funnel_table` — the human-readable stage funnel.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.obs.events import EventLog
from repro.obs.flight import DEFAULT_CAPACITY, FlightRecorder
from repro.obs.metrics import MetricsRegistry, _label_key, flat_name
from repro.obs.trace import Span, Tracer
from repro.util.clock import SimClock
from repro.util.tables import Table

#: pipeline stages in funnel order
FUNNEL_STAGES: tuple[str, ...] = ("masscan", "prefilter", "tsunami")

#: counter family holding the per-stage host flow
FUNNEL_METRIC = "funnel_hosts_total"


@dataclass
class TelemetrySummary:
    """The numeric residue of a run, carried on the ScanReport.

    Counters are flattened to their canonical series names
    (``name{label=value}``), which keeps the summary JSON-safe and
    mergeable — the same contract as
    :class:`~repro.core.retry.RetryStats`.
    """

    counters: dict[str, float] = field(default_factory=dict)
    events: int = 0
    spans: int = 0

    def merge(self, other: "TelemetrySummary") -> None:
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0.0) + value
        self.events += other.events
        self.spans += other.spans

    def copy(self) -> "TelemetrySummary":
        return TelemetrySummary(dict(self.counters), self.events, self.spans)

    def counter(self, name: str, **labels: object) -> float:
        return self.counters.get(flat_name(name, _label_key(labels)), 0.0)

    def funnel(self, stage: str, flow: str) -> float:
        return self.counter(FUNNEL_METRIC, flow=flow, stage=stage)

    def to_dict(self) -> dict:
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "events": self.events,
            "spans": self.spans,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TelemetrySummary":
        return cls(
            counters=dict(payload.get("counters", {})),
            events=payload.get("events", 0),
            spans=payload.get("spans", 0),
        )


class _FlightTap:
    """Span listener feeding finished probe spans to the flight recorder.

    On a probe span's start it marks the event log and exchange buffer;
    on its end it hands the recorder the span plus everything logged in
    that window.  Non-probe spans pass through untouched, so the tap adds
    no cost to the canonical pillars.
    """

    def __init__(self, events: EventLog, flight: FlightRecorder) -> None:
        self.events = events
        self.flight = flight
        #: (span_id, event mark, exchange mark) for open probe spans
        self._marks: list[tuple[int, int, int]] = []

    def on_start(self, span: Span) -> None:
        if span.name.startswith("probe:"):
            self._marks.append(
                (span.span_id, len(self.events), self.flight.exchange_mark())
            )

    def on_end(self, span: Span) -> None:
        if self._marks and self._marks[-1][0] == span.span_id:
            _, event_mark, exchange_mark = self._marks.pop()
            self.flight.record(
                span, self.events.since(event_mark), exchange_mark
            )


class Telemetry:
    """Shared observability handle: events + spans + metrics + flight."""

    def __init__(
        self,
        clock: SimClock | None = None,
        events_level: str = "info",
        flight_capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        self.clock = clock
        self.events = EventLog(clock=clock, min_level=events_level)
        self.tracer = Tracer(clock=clock)
        self.metrics = MetricsRegistry()
        self.flight = FlightRecorder(capacity=flight_capacity)
        self.tracer.listener = _FlightTap(self.events, self.flight)

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
        metric = self.metrics.counter
        metric(FUNNEL_METRIC, stage=stage, flow="in").inc(hosts_in)
        metric(FUNNEL_METRIC, stage=stage, flow="out").inc(hosts_out)
        metric(FUNNEL_METRIC, stage=stage, flow="dropped").inc(
            hosts_in - hosts_out - quarantined
        )
        if quarantined:
            metric(FUNNEL_METRIC, stage=stage, flow="quarantined").inc(quarantined)

    def summary(self) -> TelemetrySummary:
        return TelemetrySummary(
            counters=self.metrics.counters_flat(),
            events=len(self.events),
            spans=self.tracer.finished_count,
        )

    # -- exporters -----------------------------------------------------------

    def export_jsonl(self) -> str:
        """Events then finished spans, one JSON object per line."""
        lines = [
            json.dumps(
                {"kind": "event", **e.to_dict()},
                sort_keys=True, separators=(", ", ": "),
            )
            for e in self.events
        ]
        lines.extend(
            json.dumps(
                {"kind": "span", **s.to_dict()},
                sort_keys=True, separators=(", ", ": "),
            )
            for s in self.tracer.finished
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

    # -- shard folding -------------------------------------------------------

    def absorb(self, other: "Telemetry") -> None:
        """Fold another handle's record into this one, pillar by pillar.

        This is the sanctioned merge step for shard-local telemetry: the
        parallel engine gives every shard its own :class:`Telemetry` and
        absorbs them on the main thread in canonical shard order, so the
        merged events/spans/metrics are identical for any worker count.
        """
        self.events.absorb(other.events)
        self.tracer.absorb(other.tracer)
        self.metrics.absorb(other.metrics)
        self.flight.absorb(other.flight)

    def absorb_state(self, state: dict) -> None:
        """Absorb a telemetry snapshot (a shard result that round-tripped
        through checkpoint serialisation)."""
        shard = Telemetry()
        shard.restore_state(state)
        self.absorb(shard)

    # -- checkpoint support --------------------------------------------------

    def snapshot_state(self, events_since: int = 0, spans_since: int = 0) -> dict:
        """All four pillars; the two append-only records (events,
        finished spans) start at the given marks."""
        return {
            "events": self.events.snapshot_state(events_since),
            "tracer": self.tracer.snapshot_state(spans_since),
            "metrics": self.metrics.snapshot_state(),
            "flight": self.flight.snapshot_state(),
        }

    def restore_state(self, state: dict) -> None:
        self.events.restore_state(state["events"])
        self.tracer.restore_state(state["tracer"])
        self.metrics.restore_state(state["metrics"])
        # Snapshots written before the flight recorder carry no block.
        flight = state.get("flight")
        if flight is not None:
            self.flight.restore_state(flight)

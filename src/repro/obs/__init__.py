"""repro.obs — deterministic observability for the scan and honeypot runtimes.

Three pillars, all stamped from the :class:`~repro.util.clock.SimClock`
so two runs with the same seed produce *identical* telemetry:

* :mod:`repro.obs.events` — an append-only structured event log
  (JSONL-serialisable records with level/stage/host fields);
* :mod:`repro.obs.trace` — nested tracing spans
  (sweep → batch → stage → per-host plugin probe);
* :mod:`repro.obs.metrics` — a metrics registry of counters and
  fixed-bucket histograms (stage funnel, per-plugin latency/verdicts,
  retry/circuit-breaker and chaos-fault counters, honeypot activity).

:class:`~repro.obs.telemetry.Telemetry` bundles the three (and the
flight recorder) behind one handle that every instrumented layer
shares, snapshots through :mod:`repro.core.checkpoint`, and exports as
JSONL, Prometheus text exposition, or a human-readable funnel table.
Every pillar has one encoder, ``snapshot_state``, and one decoder,
``absorb_state``, which is also how shard telemetry folds into the
parent; ``restore_state`` is that decoder run into an emptied pillar.

On top of the pillars sit the diagnostic layers:

* :mod:`repro.obs.profile` — flamegraph-style span rollups with dual
  SimClock/wall-time accounting;
* :mod:`repro.obs.flight` — the flight recorder (bounded record of the
  slowest probes with their full event context);
* :mod:`repro.obs.console` — the live operations endpoint serving
  metrics, funnel, quarantine, and shard progress over HTTP.
"""

from repro.obs.events import Event, EventLog
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.obs.profile import ProfileRollup, WallProfile, wall_now
from repro.obs.telemetry import FUNNEL_STAGES, Telemetry
from repro.obs.trace import Span, Tracer

__all__ = [
    "Event",
    "EventLog",
    "Counter",
    "FlightRecorder",
    "Histogram",
    "MetricsRegistry",
    "ProfileRollup",
    "Span",
    "Tracer",
    "Telemetry",
    "WallProfile",
    "FUNNEL_STAGES",
    "wall_now",
]

"""The live operations console: an HTTP window into a running sweep.

A measurement campaign that runs for days cannot be observed through
end-of-run reports alone.  The console pairs a :class:`ConsoleHub` — a
thread-safe aggregation point the engines notify as shards start,
finish, and fold — with a :class:`ConsoleServer`, a stdlib
``http.server`` endpoint serving:

* ``/metrics`` — Prometheus text exposition of the merged registry;
* ``/funnel`` — the stage funnel (hosts in/out/dropped/quarantined) as
  JSON;
* ``/quarantine`` — the quarantine ledger and supervisor incident
  record as JSON;
* ``/shards`` — per-shard progress (status, frame size, scanned
  addresses, wall seconds when profiling) as JSON;
* ``/flight`` — the flight recorder's slowest probes as JSON;
* ``/`` — a plain-HTML dashboard rendering the same views.

The console is read-only and diagnostic: it never writes into the
pipeline, and nothing it serves feeds canonical output.  Mid-flight its
numbers come from the parent telemetry handle plus the *completed shard
results* not yet folded into it (``note_shard_folded``) — immutable
snapshots handed over by the workers — so a scrape never races a
shard-local pipeline.  Once the sweep is done (``finish_sweep``), the
parent handle holds everything and becomes the single source.

Staleness: per-probe counter writes stay local to the sweep thread
until the registry is published, and publishing is that thread's alone
— two threads computing the same delta would count it twice.  A scrape
therefore reads ``MetricsRegistry.published_state()``, what the sweep
last published, and never publishes itself.  The sweep publishes at
every batch boundary and before ``finish_sweep``, so ``/metrics`` and
``/funnel`` trail a running sequential sweep by at most one batch and
are exact once it is done.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import FUNNEL_METRIC, FUNNEL_STAGES
from repro.util.errors import ConfigError

#: funnel flows served per stage
_FLOWS = ("in", "out", "dropped", "quarantined")

#: snapshot retries when a live structure mutates under iteration
_READ_RETRIES = 8


class ConsoleHub:
    """Thread-safe progress aggregation point for one (or more) sweeps.

    Engines call the ``attach_telemetry`` / ``begin_sweep`` /
    ``note_shard_running`` / ``note_shard_done`` / ``note_shard_folded``
    / ``finish_sweep`` hooks; readers (the HTTP handler, tests) call the
    view methods.
    All hooks are cheap — a dict update under one lock — so worker
    threads pay nothing measurable for being observable.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._telemetry = None
        #: shard index -> {"planned", "status", "scanned", "wall"}
        self._shards: dict[int, dict] = {}
        #: completed shards' immutable ShardResults, by index (mid-flight)
        self._results: dict[int, object] = {}
        #: indices of those results the parent handle already holds
        self._folded: set[int] = set()
        self._report = None
        self._done = False

    # -- engine-facing hooks -------------------------------------------------

    def attach_telemetry(self, telemetry) -> None:
        with self._lock:
            self._telemetry = telemetry

    def begin_sweep(self, shard_plan: list[dict]) -> None:
        """A sweep is starting over these planned shards."""
        with self._lock:
            self._shards = {
                entry["index"]: {
                    "planned": entry["addresses"],
                    "status": "planned",
                    "scanned": 0,
                }
                for entry in shard_plan
            }
            self._results = {}
            self._folded = set()
            self._report = None
            self._done = False

    def note_shard_running(self, index: int) -> None:
        with self._lock:
            self._shard_entry(index)["status"] = "running"

    def note_shard_done(self, index: int, result) -> None:
        """One shard finished; ``result`` is its immutable ShardResult."""
        with self._lock:
            entry = self._shard_entry(index)
            entry["status"] = "done"
            entry["scanned"] = result.addresses
            wall = result.wall
            if wall is not None and "elapsed" in wall:
                entry["wall"] = round(wall["elapsed"], 6)
            supervisor = result.supervisor
            if supervisor is not None:
                if supervisor.get("abandoned"):
                    entry["status"] = "abandoned"
                if supervisor.get("restarts"):
                    entry["restarts"] = supervisor["restarts"]
            if not self._done:
                self._results[index] = result

    def note_shard_folded(self, index: int) -> None:
        """The parent handle now holds shard ``index``'s numbers."""
        with self._lock:
            self._folded.add(index)

    def finish_sweep(self, report) -> None:
        """The fold has run; the parent handle now holds everything."""
        with self._lock:
            self._report = report
            self._results = {}
            self._done = True

    def _shard_entry(self, index: int) -> dict:
        # A sequential run never calls begin_sweep with shards, and a
        # resumed run may fold shards the plan predates; create entries
        # on demand so hooks never fail.
        return self._shards.setdefault(
            index, {"planned": 0, "status": "planned", "scanned": 0}
        )

    # -- aggregation ---------------------------------------------------------

    def _sources(self) -> tuple[object, list]:
        """The parent handle and the results it does not hold yet."""
        with self._lock:
            return self._telemetry, [
                result for index, result in self._results.items()
                if index not in self._folded
            ]

    def _metrics_registry(self) -> MetricsRegistry:
        """Merged registry: parent handle plus unfolded shard results."""
        telemetry, results = self._sources()
        merged = MetricsRegistry()
        if telemetry is not None:
            merged.absorb_state(self._published_state(telemetry))
        for result in results:
            merged.absorb_state(result.telemetry["metrics"])
        return merged

    @staticmethod
    def _published_state(telemetry) -> dict:
        """What a live registry last published (this is not the sweep's
        thread, so it must not publish), retrying if a writer lands
        mid-read."""
        last: RuntimeError | None = None
        for _ in range(_READ_RETRIES):
            try:
                return telemetry.metrics.published_state()
            except RuntimeError as exc:  # pragma: no cover - timing window
                last = exc
        raise last  # pragma: no cover - eight consecutive collisions

    # -- read-side views -----------------------------------------------------

    def metrics_text(self) -> str:
        return self._metrics_registry().to_prometheus()

    def funnel(self) -> dict:
        registry = self._metrics_registry()
        return {
            "stages": {
                stage: {
                    flow: registry.counter_value(
                        FUNNEL_METRIC, stage=stage, flow=flow
                    )
                    for flow in _FLOWS
                }
                for stage in FUNNEL_STAGES
            }
        }

    def quarantine(self) -> dict:
        """The quarantine ledger, merged across shard coverage blocks."""
        with self._lock:
            report = self._report
            results = list(self._results.values())
        if report is not None:
            return self._quarantine_view([report.coverage.to_dict()])
        return self._quarantine_view(
            [result.report.coverage.to_dict() for result in results]
        )

    @staticmethod
    def _quarantine_view(coverages: list[dict]) -> dict:
        hosts: set[str] = set()
        blocks: set[str] = set()
        counts = {
            "poison_events": 0,
            "stall_events": 0,
            "shard_restarts": 0,
            "shards_abandoned": 0,
            "deadline_hits": 0,
        }
        for coverage in coverages:
            hosts.update(coverage.get("quarantined_hosts", []))
            blocks.update(coverage.get("quarantined_blocks", []))
            for key in counts:
                counts[key] += coverage.get(key, 0)
        return {
            "quarantined_hosts": sorted(hosts),
            "quarantined_blocks": sorted(blocks),
            **counts,
        }

    def shards(self) -> dict:
        with self._lock:
            entries = {
                str(index): dict(self._shards[index])
                for index in sorted(self._shards)
            }
            done = self._done
        statuses = [entry["status"] for entry in entries.values()]
        return {
            "complete": done,
            "total": len(entries),
            "running": statuses.count("running"),
            "done": statuses.count("done") + statuses.count("abandoned"),
            "shards": entries,
        }

    def flight(self) -> dict:
        """The merged flight recorder (slowest probes so far)."""
        telemetry, results = self._sources()
        merged = FlightRecorder()
        if telemetry is not None:
            merged.absorb_state(telemetry.flight.snapshot_state())
        for result in results:
            state = result.telemetry.get("flight")
            if state is not None:
                merged.absorb_state(state)
        return merged.snapshot_state()

    def dashboard_html(self) -> str:
        """The plain-HTML view of everything above — no scripts, no CSS
        frameworks, just what a terminal-born dashboard needs."""
        funnel = self.funnel()
        shards = self.shards()
        quarantine = self.quarantine()
        flight = self.flight()
        rows = "".join(
            "<tr><td>{stage}</td><td>{in_:.0f}</td><td>{out:.0f}</td>"
            "<td>{dropped:.0f}</td><td>{quarantined:.0f}</td></tr>".format(
                stage=stage,
                in_=flows["in"],
                out=flows["out"],
                dropped=flows["dropped"],
                quarantined=flows["quarantined"],
            )
            for stage, flows in funnel["stages"].items()
        )
        slowest = "".join(
            "<tr><td>{name}</td><td>{host}</td><td>{duration:.3f}</td>"
            "<td>{exchanges}</td></tr>".format(
                name=record["name"],
                host=record["host"],
                duration=record["duration"],
                exchanges=len(record["exchanges"]),
            )
            for record in flight["records"][:8]
        )
        return (
            "<!DOCTYPE html><html><head><title>repro sweep console</title>"
            "</head><body>"
            "<h1>Sweep console</h1>"
            f"<p>Shards: {shards['done']}/{shards['total']} done, "
            f"{shards['running']} running"
            f"{' — sweep complete' if shards['complete'] else ''}</p>"
            "<h2>Stage funnel (hosts)</h2>"
            "<table border=1><tr><th>stage</th><th>in</th><th>out</th>"
            f"<th>dropped</th><th>quarantined</th></tr>{rows}</table>"
            "<h2>Quarantine</h2>"
            f"<p>{len(quarantine['quarantined_hosts'])} hosts, "
            f"{len(quarantine['quarantined_blocks'])} blocks quarantined; "
            f"{quarantine['shard_restarts']} shard restarts, "
            f"{quarantine['shards_abandoned']} abandoned</p>"
            "<h2>Slowest probes</h2>"
            "<table border=1><tr><th>probe</th><th>host</th>"
            f"<th>sim seconds</th><th>exchanges</th></tr>{slowest}</table>"
            "<p>Raw views: <a href='/metrics'>/metrics</a> "
            "<a href='/funnel'>/funnel</a> "
            "<a href='/quarantine'>/quarantine</a> "
            "<a href='/shards'>/shards</a> "
            "<a href='/flight'>/flight</a></p>"
            "</body></html>"
        )


class _ConsoleHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    #: the hub handlers read from (set by ConsoleServer)
    hub: ConsoleHub | None = None


class _ConsoleHandler(BaseHTTPRequestHandler):
    """Routes GETs to the hub's views; everything else is a 404."""

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        hub = self.server.hub
        try:
            if self.path == "/metrics":
                self._reply(hub.metrics_text(), "text/plain; version=0.0.4")
            elif self.path == "/funnel":
                self._reply_json(hub.funnel())
            elif self.path == "/quarantine":
                self._reply_json(hub.quarantine())
            elif self.path == "/shards":
                self._reply_json(hub.shards())
            elif self.path == "/flight":
                self._reply_json(hub.flight())
            elif self.path == "/":
                self._reply(hub.dashboard_html(), "text/html")
            else:
                self.send_error(404, "unknown console path")
        except Exception as exc:  # pragma: no cover - defensive
            self.send_error(500, f"{type(exc).__name__}: {exc}")

    def _reply_json(self, payload: dict) -> None:
        self._reply(
            json.dumps(payload, sort_keys=True, indent=2) + "\n",
            "application/json",
        )

    def _reply(self, body: str, content_type: str) -> None:
        data = body.encode()
        self.send_response(200)
        self.send_header("content-type", content_type)
        self.send_header("content-length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format: str, *args: object) -> None:
        """Silence per-request stderr lines (the CLI owns stdout/stderr)."""


class ConsoleServer:
    """The operations endpoint: a daemon-thread HTTP server over a hub.

    Binds loopback only — the console is an operator's window, not a
    public service.  ``port=0`` asks the OS for an ephemeral port (the
    integration tests' mode); the bound port is available as ``.port``.
    A port that cannot be bound (taken, or privileged) is a
    :class:`~repro.util.errors.ConfigError` naming it and the OS reason.
    """

    def __init__(
        self, hub: ConsoleHub, port: int = 0, host: str = "127.0.0.1"
    ) -> None:
        self.hub = hub
        try:
            self._server = _ConsoleHTTPServer((host, port), _ConsoleHandler)
        except OSError as error:
            raise ConfigError(
                f"console cannot listen on {host}:{port}: "
                f"{error.strerror or error}"
            ) from None
        self._server.hub = hub
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "ConsoleServer":
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-console",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "ConsoleServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

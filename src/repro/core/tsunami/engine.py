"""The Tsunami scanning engine.

Selects the appropriate detection plugins for a target "based on the port
and application information from Stage I and Stage II" (the paper's
words): stage II hands over a candidate application list, the engine runs
exactly those plugins, and collects verified findings.  Plugins that blow
up are isolated — one broken plugin must never abort a scan batch.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import lru_cache

from repro.core.retry import RetryExecutor
from repro.core.tsunami.plugin import Detection, DetectionReport, PluginContext
from repro.core.tsunami.plugins import ALL_PLUGINS
from repro.net.http import Scheme
from repro.net.ipv4 import IPv4Address
from repro.net.transport import Transport
from repro.obs.metrics import series_key
from repro.obs.telemetry import Telemetry

logger = logging.getLogger(__name__)


@dataclass
class EngineStats:
    plugins_run: int = 0
    detections: int = 0
    plugin_errors: int = 0
    runs_per_plugin: dict[str, int] = field(default_factory=dict)


@lru_cache(maxsize=None)  # plugins x three verdicts
def _probe_books(slug: str, verdict: str) -> tuple:
    """What one probe outcome is booked under, built once: the span name,
    its attrs (one mapping shared by every such span — nobody writes to
    it), the verdict counter's series and the latency histogram's."""
    return (
        f"probe:{slug}",
        {"verdict": verdict},
        series_key("plugin_verdicts_total", plugin=slug, verdict=verdict),
        series_key("plugin_latency_seconds", plugin=slug),
    )


class TsunamiEngine:
    """Runs MAV detection plugins against prefiltered targets."""

    def __init__(
        self,
        transport: Transport,
        plugins: tuple[Detection, ...] = ALL_PLUGINS,
        retry: "RetryExecutor | None" = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.transport = transport
        self._by_slug = {plugin.slug: plugin for plugin in plugins}
        self.retry = retry
        self.telemetry = telemetry
        self.stats = EngineStats()

    @property
    def plugins(self) -> tuple[Detection, ...]:
        return tuple(self._by_slug.values())

    def plugins_for_candidates(
        self, candidates: tuple[str, ...]
    ) -> list[Detection]:
        return [
            self._by_slug[slug] for slug in candidates if slug in self._by_slug
        ]

    def scan_target(
        self,
        ip: IPv4Address,
        port: int,
        scheme: Scheme,
        candidates: tuple[str, ...],
        memo: dict | None = None,
    ) -> list[DetectionReport]:
        """Run every candidate's plugin against one (ip, port, scheme).
        The plugins share one answer memo: ``memo`` when given (the
        pipeline seeds it with the stage-II landing page), else a new one."""
        context = PluginContext(
            self.transport, ip, port, scheme,
            retry=self.retry, telemetry=self.telemetry,
            memo=memo,
        )
        reports = []
        for plugin in self.plugins_for_candidates(candidates):
            self.stats.plugins_run += 1
            self.stats.runs_per_plugin[plugin.slug] = (
                self.stats.runs_per_plugin.get(plugin.slug, 0) + 1
            )
            window = None
            if self.telemetry is not None:
                window = self.telemetry.probe_start()
            try:
                report = plugin.detect(context)
            except Exception:
                # A plugin crash is a plugin bug, not a scan failure.
                self.stats.plugin_errors += 1
                logger.exception("plugin %s crashed on %s:%s", plugin.slug, ip, port)
                self._finish_probe(window, plugin.slug, ip, port, "error")
                continue
            verdict = "detected" if report is not None else "clean"
            self._finish_probe(window, plugin.slug, ip, port, verdict)
            if report is not None:
                self.stats.detections += 1
                reports.append(report)
        return reports

    def _finish_probe(
        self, window, slug: str, ip: IPv4Address, port: int, verdict: str
    ) -> None:
        telemetry = self.telemetry
        if telemetry is None:
            return
        name, attrs, verdicts, latency = _probe_books(slug, verdict)
        duration = telemetry.probe_end(window, name, ip, port, attrs)
        pending = telemetry.metrics.pending
        pending[verdicts] = pending.get(verdicts, 0) + 1
        telemetry.metrics.observed[latency].append(duration)
        if verdict == "detected":
            telemetry.events.info("tsunami", "mav-detected", host=ip, plugin=slug)
        elif verdict == "error":
            telemetry.events.warn("tsunami", "plugin-error", host=ip, plugin=slug)

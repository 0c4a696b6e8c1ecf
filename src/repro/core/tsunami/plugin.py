"""Plugin API of the Tsunami-style scanner.

Each plugin verifies one application's MAV with a handful of
non-state-changing GET requests.  Plugins receive a :class:`PluginContext`
wrapping the transport plus the target coordinates, use its helpers
(``fetch``, ``fetch_json``), and return a :class:`DetectionReport` when —
and only when — every detection step succeeds.  A context asks its target
each question once: answers are remembered per ``(path,
follow_redirects)``, whatever their status, so the plugins, the
disclosure extractors and the crawler that share one context share its
answers; a transport failure is not remembered, and is asked again.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import partial

from repro.core.retry import RetryExecutor
from repro.net.http import HttpResponse, Scheme
from repro.net.ipv4 import IPv4Address
from repro.net.transport import Transport
from repro.util.errors import TransportError


@dataclass(frozen=True)
class DetectionReport:
    """A verified missing-authentication vulnerability."""

    ip: IPv4Address
    port: int
    scheme: Scheme
    slug: str
    title: str
    details: str

    def __str__(self) -> str:
        return f"[{self.slug}] {self.ip}:{self.port} — {self.title}"


@dataclass
class PluginContext:
    """Target coordinates plus transport helpers for one plugin run."""

    transport: Transport
    ip: IPv4Address
    port: int
    scheme: Scheme
    #: when set, transient transport failures are retried with backoff
    retry: RetryExecutor | None = None
    #: when set, every exchange is noted on the flight recorder
    telemetry: object | None = None
    #: ``(path, follow_redirects) -> response`` already received
    memo: dict[tuple[str, int], HttpResponse] = field(default_factory=dict)

    def fetch(self, path: str, follow_redirects: int = 5) -> HttpResponse | None:
        """GET ``path``, or read it from the memo; ``None`` on any
        transport failure.  A memo hit is noted as the wire answer was."""
        key = (path, follow_redirects)
        response = self.memo.get(key)
        if response is None:
            attempt = partial(
                self.transport.get, self.ip, self.port, path, self.scheme,
                follow_redirects,
            )
            try:
                if self.retry is not None:
                    response = self.retry.call(self.ip, attempt)
                else:
                    response = attempt()
            except TransportError as exc:
                if self.telemetry is not None:
                    self.telemetry.flight.note_exchange(
                        path, error=type(exc).__name__
                    )
                return None
            self.memo[key] = response
        if self.telemetry is not None:
            self.telemetry.flight.note_exchange(
                path, response.status, len(response.body)
            )
        return response

    def fetch_json(self, path: str) -> object | None:
        """GET ``path`` and parse the body as JSON; ``None`` on failure."""
        response = self.fetch(path)
        if response is None or response.status >= 400:
            return None
        try:
            return json.loads(response.body)
        except json.JSONDecodeError:
            return None


class MavDetectionPlugin(ABC):
    """Base class for the 18 MAV verification plugins."""

    #: application this plugin verifies (catalog slug)
    slug: str = "abstract"
    #: human-readable finding title
    title: str = "Missing authentication"

    @abstractmethod
    def detect(self, context: PluginContext) -> DetectionReport | None:
        """Run the detection steps; report only if all succeed."""

    def report(self, context: PluginContext, details: str) -> DetectionReport:
        return DetectionReport(
            ip=context.ip,
            port=context.port,
            scheme=context.scheme,
            slug=self.slug,
            title=self.title,
            details=details,
        )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} slug={self.slug}>"

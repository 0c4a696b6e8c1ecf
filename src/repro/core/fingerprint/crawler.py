"""Static-file crawler feeding the hash fingerprinter.

Crawls a target application: fetches the landing page, extracts the
static resources it references (``src=`` / ``href=`` attributes), fetches
each, and — because stripped-down pages may reference nothing — also
probes the knowledge base's known paths for the candidate applications.
Returns ``path -> hash`` observations for
:meth:`~repro.core.fingerprint.knowledge_base.KnowledgeBase.identify`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.core.fingerprint.knowledge_base import KnowledgeBase, file_hash
from repro.core.retry import RetryExecutor
from repro.core.tsunami.plugin import PluginContext
from repro.net.http import Scheme
from repro.net.ipv4 import IPv4Address
from repro.net.transport import Transport
from repro.obs.metrics import series_key
from repro.obs.telemetry import Telemetry

_RESOURCE_RE = re.compile(r"""(?:src|href)=["']([^"']+)["']""")

#: extensions worth hashing — matches what the paper's KB stores
_STATIC_SUFFIXES = (".js", ".css", ".png", ".jpg", ".gif", ".svg", ".ico")


def extract_resource_paths(body: str) -> list[str]:
    """Static resource paths referenced by an HTML page (same host only)."""
    paths = []
    for match in _RESOURCE_RE.finditer(body):
        url = match.group(1)
        if "://" in url or url.startswith("//"):
            continue  # cross-origin: out of scope for a per-IP scan
        path = url if url.startswith("/") else "/" + url
        if path.lower().endswith(_STATIC_SUFFIXES):
            paths.append(path)
    return paths


_FETCH_SERIES = {
    outcome: series_key("crawler_fetches_total", outcome=outcome)
    for outcome in ("ok", "error")
}


@dataclass
class StaticFileCrawler:
    """Bounded crawler for one target."""

    transport: Transport
    max_fetches: int = 16
    #: when set, transient fetch failures are retried with backoff
    retry: RetryExecutor | None = None
    #: when set, fetch outcomes are counted as ``crawler_fetches_total``
    telemetry: Telemetry | None = None

    def _count_fetch(self, outcome: str) -> None:
        if self.telemetry is not None:
            pending = self.telemetry.metrics.pending
            series = _FETCH_SERIES[outcome]
            pending[series] = pending.get(series, 0) + 1

    def crawl(
        self,
        ip: IPv4Address,
        port: int,
        scheme: Scheme,
        candidates: tuple[str, ...] = (),
        kb: KnowledgeBase | None = None,
        memo: dict | None = None,
    ) -> dict[str, str]:
        """Collect ``path -> hash`` for the target's static files.  Fetches
        go through one :class:`PluginContext` over ``memo`` (the landing
        page the pipeline already holds is read from there)."""
        context = PluginContext(
            self.transport, ip, port, scheme, retry=self.retry,
            memo=memo,
        )
        observations: dict[str, str] = {}
        fetches = 0

        landing = context.fetch("/")
        if landing is None:
            self._count_fetch("error")
            return observations
        self._count_fetch("ok")
        fetches += 1

        to_fetch: list[str] = extract_resource_paths(landing.body)
        if kb is not None:
            for slug in candidates:
                for path in kb.paths_for(slug):
                    if path not in to_fetch:
                        to_fetch.append(path)

        for path in to_fetch:
            if fetches >= self.max_fetches:
                break
            if path in observations:
                continue
            response = context.fetch(path, follow_redirects=0)
            if response is None:
                self._count_fetch("error")
                continue
            self._count_fetch("ok")
            fetches += 1
            if response.status != 200 or not response.body:
                continue
            observations[path] = file_hash(response.body)
        return observations

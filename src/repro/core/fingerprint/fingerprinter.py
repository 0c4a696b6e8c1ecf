"""The combined version fingerprinter (a Tsunami plugin in the paper).

Order of attack, per the paper:

1. voluntary disclosure (13 applications reveal their version);
2. static-file hash matching against the knowledge base for the five
   remaining applications and for hosts that stripped the version string.

Results carry the *method* that produced them so the fingerprint-coverage
ablation can compare the two mechanisms.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.fingerprint.crawler import StaticFileCrawler
from repro.core.fingerprint.disclosure import extract_disclosed_version
from repro.core.fingerprint.knowledge_base import KnowledgeBase
from repro.core.retry import RetryExecutor
from repro.core.tsunami.plugin import PluginContext
from repro.net.http import Scheme
from repro.net.ipv4 import IPv4Address
from repro.net.transport import Transport
from repro.obs.metrics import series_key
from repro.obs.telemetry import Telemetry


class FingerprintMethod(enum.Enum):
    DISCLOSURE = "disclosure"
    HASH_MATCH = "hash-match"

    __hash__ = object.__hash__  # by identity, as ``Scheme``'s


@dataclass(frozen=True)
class Fingerprint:
    """A (slug, version) identification of one deployed instance."""

    slug: str
    version: str
    method: FingerprintMethod

    def __reduce__(self):
        return Fingerprint, (self.slug, self.version, self.method)


#: fingerprint method (None = unidentified) -> its result-counter series
_RESULT_SERIES = {
    method: series_key(
        "fingerprint_results_total",
        method=method.value if method is not None else "none",
    )
    for method in (*FingerprintMethod, None)
}


class VersionFingerprinter:
    """Disclosure-first fingerprinter with a hash-matching fallback."""

    def __init__(
        self,
        transport: Transport,
        knowledge_base: KnowledgeBase,
        max_crawl_fetches: int = 16,
        use_disclosure: bool = True,
        use_hashes: bool = True,
        retry: "RetryExecutor | None" = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.transport = transport
        self.kb = knowledge_base
        self.retry = retry
        self.telemetry = telemetry
        self.crawler = StaticFileCrawler(
            transport, max_fetches=max_crawl_fetches, retry=retry,
            telemetry=telemetry,
        )
        self.use_disclosure = use_disclosure
        self.use_hashes = use_hashes

    def fingerprint(
        self,
        ip: IPv4Address,
        port: int,
        scheme: Scheme,
        candidates: tuple[str, ...],
        memo: dict | None = None,
    ) -> Fingerprint | None:
        """Identify the application and version running on a target,
        reading the answers already in ``memo`` (stage III's) first."""
        memo = {} if memo is None else memo
        result = self._fingerprint(ip, port, scheme, candidates, memo)
        if self.telemetry is not None:
            pending = self.telemetry.metrics.pending
            series = _RESULT_SERIES[result.method if result is not None else None]
            pending[series] = pending.get(series, 0) + 1
        return result

    def _fingerprint(
        self,
        ip: IPv4Address,
        port: int,
        scheme: Scheme,
        candidates: tuple[str, ...],
        memo: dict,
    ) -> Fingerprint | None:
        context = PluginContext(
            self.transport, ip, port, scheme, retry=self.retry, memo=memo
        )
        if self.use_disclosure:
            for slug in candidates:
                version = extract_disclosed_version(context, slug)
                if version is not None:
                    return Fingerprint(slug, version, FingerprintMethod.DISCLOSURE)
        if self.use_hashes:
            observations = self.crawler.crawl(
                ip, port, scheme, candidates, self.kb, memo
            )
            identified = self.kb.identify(observations)
            if identified is not None:
                slug, version = identified
                return Fingerprint(slug, version, FingerprintMethod.HASH_MATCH)
        return None

"""The snapshot-diff recorder, kept as the oracle for the window recorder.

This is how ``repro.core.rescan`` took a freshly probed host's record
before it read the host's adds out of ``MetricsRegistry.pending``: a
whole-registry ``counters_flat()`` snapshot before and after each host
step, every series of the later one diffed against the earlier; and the
``(port, scheme)`` response sequence re-derived over ports x schemes
from copies of both response tallies.  It costs O(registry) per host
where the production recorder costs O(what the host touched), it needs
no window contract (a read in the middle of a host changes nothing), and
``test_rescan_recorder.py`` requires the two to build equal ledgers.

Replayed hosts, the batch step and the engine are production's own:
only the two fresh-host paths differ.
"""

from __future__ import annotations

from repro.core import rescan
from repro.core.pipeline import ScanPipeline
from repro.core.rescan import HostRecord, RescanEngine
from repro.core.serialize import finding_to_dict
from repro.net.http import Scheme


def capture(tel) -> tuple[dict[str, float], int, int]:
    return (
        tel.metrics.counters_flat(),
        len(tel.events),
        tel.tracer.finished_count,
    )


def charge(
    record: HostRecord,
    before: tuple[dict[str, float], int, int],
    after: tuple[dict[str, float], int, int],
) -> None:
    """Fold a captured live-telemetry delta into ``record``."""
    for name, value in after[0].items():
        delta = value - before[0].get(name, 0.0)
        if delta:
            record.counters[name] = record.counters.get(name, 0.0) + delta
    record.events += after[1] - before[1]
    record.spans += after[2] - before[2]


class SnapshotDiffPipeline(rescan._ReplayingPipeline):
    """The replaying pipeline, recording fresh hosts the old way."""

    def _probe_host(self, ip, ports):
        if ip.value in self.replay:
            return super()._probe_host(ip, ports)
        stats = self._prefilter.stats
        before = capture(self.telemetry)
        http_seen = dict(stats.http_responses)
        https_seen = dict(stats.https_responses)
        findings = ScanPipeline._probe_host(self, ip, ports)
        responses = []
        for port in ports:
            for scheme in self._prefilter.schemes_for_port(port):
                if scheme is Scheme.HTTP:
                    seen, now = http_seen, stats.http_responses
                else:
                    seen, now = https_seen, stats.https_responses
                if now.get(port, 0) > seen.get(port, 0):
                    responses.append((port, scheme.value))
        record = self.records[ip.value] = HostRecord(ip.value, tuple(responses))
        charge(record, before, capture(self.telemetry))
        return findings

    def _verify_and_fingerprint(self, finding, report) -> None:
        value = finding.ip.value
        if value in self.replay:
            return super()._verify_and_fingerprint(finding, report)
        before = capture(self.telemetry)
        ScanPipeline._verify_and_fingerprint(self, finding, report)
        record = self.records[value]
        charge(record, before, capture(self.telemetry))
        record.finding = finding_to_dict(report.findings[value])


class ReferenceEngine(RescanEngine):
    """A ``RescanEngine`` whose sweeps record through the oracle.

    The engine names its pipeline class once, as a module global looked
    up when a sweep starts; swapping it for the length of the sweep puts
    the oracle in without a seam in ``src/``.
    """

    def _sweep(self, *args, **kwargs):
        production = rescan._ReplayingPipeline
        rescan._ReplayingPipeline = SnapshotDiffPipeline
        try:
            return super()._sweep(*args, **kwargs)
        finally:
            rescan._ReplayingPipeline = production

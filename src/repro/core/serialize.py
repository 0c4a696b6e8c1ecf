"""Persist scan results to JSON and load them back.

A real measurement pipeline separates collection from analysis: the scan
runs once (22 hours, 64 machines) and the analysis iterates offline.
This module serialises a :class:`~repro.core.pipeline.ScanReport` to a
stable JSON document — findings, detections, fingerprints, port counts —
so analyses can re-run without re-scanning.
"""

from __future__ import annotations

import json
from itertools import islice
from pathlib import Path

from repro.core.coverage import CoverageReport
from repro.core.fingerprint.fingerprinter import Fingerprint, FingerprintMethod
from repro.core.pipeline import AppObservation, HostFinding, ScanReport
from repro.core.retry import RetryStats
from repro.core.tsunami.plugin import DetectionReport
from repro.net.http import Scheme
from repro.net.ipv4 import IPv4Address, dotted_quad

FORMAT_VERSION = 1


def finding_to_dict(finding: HostFinding) -> dict:
    """One host's stage-II/III results as a JSON-safe entry."""
    observations = []
    for observation in finding.observations.values():
        entry: dict = {
            "slug": observation.slug,
            "port": observation.port,
            "scheme": observation.scheme.value,
            "vulnerable": observation.vulnerable,
        }
        if observation.fingerprint is not None:
            entry["fingerprint"] = {
                "slug": observation.fingerprint.slug,
                "version": observation.fingerprint.version,
                "method": observation.fingerprint.method.value,
            }
        if observation.detection is not None:
            entry["detection"] = {
                "title": observation.detection.title,
                "details": observation.detection.details,
            }
        observations.append(entry)
    return {"ip": str(finding.ip), "observations": observations}


def finding_from_dict(entry: dict) -> HostFinding:
    """Rebuild one host's finding from :func:`finding_to_dict` output."""
    ip = IPv4Address.parse(entry["ip"])
    finding = HostFinding(ip)
    for raw in entry["observations"]:
        observation = AppObservation(
            ip=ip,
            slug=raw["slug"],
            port=raw["port"],
            scheme=Scheme(raw["scheme"]),
            vulnerable=raw["vulnerable"],
        )
        fingerprint = raw.get("fingerprint")
        if fingerprint:
            observation.fingerprint = Fingerprint(
                slug=fingerprint["slug"],
                version=fingerprint["version"],
                method=FingerprintMethod(fingerprint["method"]),
            )
        detection = raw.get("detection")
        if detection:
            observation.detection = DetectionReport(
                ip=ip,
                port=raw["port"],
                scheme=Scheme(raw["scheme"]),
                slug=raw["slug"],
                title=detection["title"],
                details=detection["details"],
            )
        finding.observations[raw["slug"]] = observation
    return finding


def report_to_dict(
    report: ScanReport, open_ports_since: int = 0, findings_since: int = 0
) -> dict:
    """A JSON-safe dictionary capturing the whole report.

    The two per-host sections only ever gain entries during a sweep
    (batches partition the address space), so a checkpoint journal record
    passes how many of each it already holds and gets just the newer
    ones; every other key is a cumulative total either way.
    """
    findings = [
        finding_to_dict(finding)
        for finding in islice(report.findings.values(), findings_since, None)
    ]
    return {
        "format_version": FORMAT_VERSION,
        "open_ports": {
            dotted_quad(value): list(ports)
            for value, ports in islice(
                report.port_scan.open_ports.items(), open_ports_since, None
            )
        },
        "probes_sent": report.port_scan.probes_sent,
        "addresses_scanned": report.port_scan.addresses_scanned,
        "http_responses": dict(report.http_responses),
        "https_responses": dict(report.https_responses),
        "retry_stats": report.retry_stats.to_dict(),
        "coverage": report.coverage.to_dict(),
        "findings": findings,
    }


def report_from_dict(payload: dict) -> ScanReport:
    """Rebuild a report from :func:`report_to_dict` output."""
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported report format version: {version!r}")
    report = ScanReport()
    for text, ports in payload["open_ports"].items():
        report.port_scan.record(IPv4Address.parse(text), ports)
    report.port_scan.probes_sent = payload["probes_sent"]
    report.port_scan.addresses_scanned = payload["addresses_scanned"]
    report.http_responses = {int(k): v for k, v in payload["http_responses"].items()}
    report.https_responses = {int(k): v for k, v in payload["https_responses"].items()}
    # Reports written before the resilience layer carry no retry block,
    # and ones from before the supervised runtime no coverage block.  A
    # ``telemetry`` block, which reports used to carry, is ignored.
    report.retry_stats = RetryStats.from_dict(payload.get("retry_stats", {}))
    report.coverage = CoverageReport.from_dict(payload.get("coverage", {}))

    for entry in payload["findings"]:
        finding = finding_from_dict(entry)
        report.findings[finding.ip.value] = finding
        report.detections.extend(
            o.detection for o in finding.observations.values()
            if o.detection is not None
        )
    return report


def save_report(report: ScanReport, path: str | Path) -> None:
    """Write the report as (indented) JSON."""
    Path(path).write_text(json.dumps(report_to_dict(report), indent=1))


def load_report(path: str | Path) -> ScanReport:
    """Load a report previously written by :func:`save_report`."""
    return report_from_dict(json.loads(Path(path).read_text()))

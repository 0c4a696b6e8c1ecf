"""Persist scan results to JSON and load them back.

A real measurement pipeline separates collection from analysis: the scan
runs once (22 hours, 64 machines) and the analysis iterates offline.
This module serialises a :class:`~repro.core.pipeline.ScanReport` to a
stable JSON document — findings, detections, fingerprints, port counts —
so analyses can re-run without re-scanning.

A checkpoint journal holds the same report as rows of plain values
(:func:`report_rows`): a finding is a flat tuple per observation, and a
report file's JSON entry is a rendering of that row.
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


def finding_row(finding: HostFinding) -> tuple:
    """``(ip value, observations)``, an observation being ``(slug, port,
    scheme, vulnerable, fingerprint slug, version, method, detection
    title, details)`` with None for what it does not have."""
    rows = []
    for o in finding.observations.values():
        fp, detection = o.fingerprint, o.detection
        # ``_value_`` is the member's value without the ``value``
        # property's two Python calls.
        rows.append((
            o.slug, o.port, o.scheme._value_, o.vulnerable,
            fp and fp.slug, fp and fp.version, fp and fp.method._value_,
            detection and detection.title, detection and detection.details,
        ))
    return finding.ip.value, tuple(rows)


def finding_from_row(row: tuple) -> HostFinding:
    """Rebuild one host's finding from :func:`finding_row` output."""
    value, rows = row
    ip = IPv4Address(value)
    finding = HostFinding(ip)
    for slug, port, scheme, vuln, fp_slug, version, method, title, details in rows:
        scheme = Scheme(scheme)
        finding.observations[slug] = AppObservation(
            ip, slug, port, scheme, vuln,
            detection=(
                None if title is None
                else DetectionReport(ip, port, scheme, slug, title, details)
            ),
            fingerprint=(
                None if method is None
                else Fingerprint(fp_slug, version, FingerprintMethod(method))
            ),
        )
    return finding


def _as_entry(row: tuple) -> dict:
    """A :func:`finding_row` as the report file's JSON entry."""
    value, rows = row
    observations = []
    for slug, port, scheme, vuln, fp_slug, version, method, title, details in rows:
        entry = {"slug": slug, "port": port, "scheme": scheme, "vulnerable": vuln}
        if method is not None:
            entry["fingerprint"] = {
                "slug": fp_slug, "version": version, "method": method,
            }
        if title is not None:
            entry["detection"] = {"title": title, "details": details}
        observations.append(entry)
    return {"ip": dotted_quad(value), "observations": observations}


def _as_row(entry: dict) -> tuple:
    """A report file's JSON entry as a :func:`finding_row`."""
    rows = []
    for raw in entry["observations"]:
        fp, detection = raw.get("fingerprint") or {}, raw.get("detection") or {}
        rows.append((
            raw["slug"], raw["port"], raw["scheme"], raw["vulnerable"],
            fp.get("slug"), fp.get("version"), fp.get("method"),
            detection.get("title"), detection.get("details"),
        ))
    return IPv4Address.parse(entry["ip"]).value, rows


def report_rows(
    report: ScanReport, open_ports_since: int = 0, findings_since: int = 0
) -> dict:
    """The report as plain values, its per-host sections as rows:
    ``(ip value, ports)`` pairs and :func:`finding_row` tuples.  Those
    sections only gain entries during a sweep, so a journal record passes
    how many of each it already holds and gets just the newer ones."""
    return {
        "open_ports": list(
            islice(report.port_scan.open_ports.items(), open_ports_since, None)
        ),
        "probes_sent": report.port_scan.probes_sent,
        "addresses_scanned": report.port_scan.addresses_scanned,
        "http_responses": dict(report.http_responses),
        "https_responses": dict(report.https_responses),
        "retry_stats": report.retry_stats.to_dict(),
        "coverage": report.coverage.to_dict(),
        "findings": [
            finding_row(finding)
            for finding in islice(report.findings.values(), findings_since, None)
        ],
    }


def report_to_dict(report: ScanReport) -> dict:
    """A JSON-safe dictionary capturing the whole report."""
    state = report_rows(report)
    return {
        "format_version": FORMAT_VERSION,
        **state,
        "open_ports": {
            dotted_quad(value): list(ports) for value, ports in state["open_ports"]
        },
        "findings": [_as_entry(row) for row in state["findings"]],
    }


def report_from_dict(payload: dict) -> ScanReport:
    """Rebuild a report from :func:`report_to_dict` output."""
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported report format version: {version!r}")
    return report_from_rows({
        **payload,
        "open_ports": [
            (IPv4Address.parse(text).value, tuple(sorted(ports)))
            for text, ports in payload["open_ports"].items() if ports
        ],
        "findings": [_as_row(entry) for entry in payload["findings"]],
    })


def report_from_rows(state: dict) -> ScanReport:
    """Rebuild a report from :func:`report_rows` output."""
    report = ScanReport()
    report.port_scan.open_ports.update(state["open_ports"])
    report.port_scan.probes_sent = state["probes_sent"]
    report.port_scan.addresses_scanned = state["addresses_scanned"]
    report.http_responses = {int(k): v for k, v in state["http_responses"].items()}
    report.https_responses = {int(k): v for k, v in state["https_responses"].items()}
    # Reports written before the resilience layer carry no retry block,
    # and ones from before the supervised runtime no coverage block.  A
    # ``telemetry`` block, which reports used to carry, is ignored.
    report.retry_stats = RetryStats.from_dict(state.get("retry_stats", {}))
    report.coverage = CoverageReport.from_dict(state.get("coverage", {}))
    for row in state["findings"]:
        finding = finding_from_row(row)
        report.findings[finding.ip.value] = finding
    return report


def save_report(report: ScanReport, path: str | Path) -> None:
    """Write the report as (indented) JSON."""
    Path(path).write_text(json.dumps(report_to_dict(report), indent=1))


def load_report(path: str | Path) -> ScanReport:
    """Load a report previously written by :func:`save_report`."""
    return report_from_dict(json.loads(Path(path).read_text()))

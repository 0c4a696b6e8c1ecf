"""Tests for scan-report serialisation."""

import json

import pytest

from repro.core.serialize import (
    load_report,
    report_from_dict,
    report_to_dict,
    save_report,
)


class TestRoundTrip:
    def test_counts_survive(self, tiny_scan_study):
        original = tiny_scan_study.report
        rebuilt = report_from_dict(report_to_dict(original))
        assert rebuilt.hosts_per_app() == original.hosts_per_app()
        assert rebuilt.mavs_per_app() == original.mavs_per_app()
        assert rebuilt.total_awe_hosts() == original.total_awe_hosts()

    def test_port_scan_survives(self, tiny_scan_study):
        original = tiny_scan_study.report
        rebuilt = report_from_dict(report_to_dict(original))
        assert rebuilt.port_scan.open_ports == original.port_scan.open_ports
        assert rebuilt.port_scan.probes_sent == original.port_scan.probes_sent

    def test_fingerprints_survive(self, tiny_scan_study):
        original = tiny_scan_study.report
        rebuilt = report_from_dict(report_to_dict(original))
        for finding in original.findings.values():
            twin = rebuilt.findings[finding.ip.value]
            for slug, observation in finding.observations.items():
                if observation.fingerprint is None:
                    assert twin.observations[slug].fingerprint is None
                else:
                    assert (
                        twin.observations[slug].fingerprint.version
                        == observation.fingerprint.version
                    )

    def test_detections_survive(self, tiny_scan_study):
        original = tiny_scan_study.report
        rebuilt = report_from_dict(report_to_dict(original))
        assert len(rebuilt.detections) == len(
            [o for o in original.observations() if o.detection]
        )

    def test_vulnerable_ips_identical(self, tiny_scan_study):
        original = tiny_scan_study.report
        rebuilt = report_from_dict(report_to_dict(original))
        assert {ip.value for ip in rebuilt.vulnerable_ips()} == {
            ip.value for ip in original.vulnerable_ips()
        }

    def test_all_stats_fields_survive(self, tiny_scan_study):
        """Regression: retry stats must round-trip losslessly."""
        original = tiny_scan_study.report
        # JSON-encode the dict to mimic the on-disk path exactly
        rebuilt = report_from_dict(json.loads(json.dumps(report_to_dict(original))))
        assert rebuilt.retry_stats.to_dict() == original.retry_stats.to_dict()
        assert rebuilt.http_responses == original.http_responses
        assert rebuilt.https_responses == original.https_responses
        assert rebuilt.port_scan.addresses_scanned == original.port_scan.addresses_scanned

    def test_a_telemetry_block_is_ignored(self):
        """Reports used to carry a copy of the sweep's counters; one that
        still has it loads, and saves without it."""
        from repro.core.pipeline import ScanReport
        from repro.core.retry import RetryStats

        report = ScanReport()
        report.retry_stats = RetryStats(attempts=9, retries=4, recovered=2)
        payload = report_to_dict(report)
        older = {**payload, "telemetry": {
            "counters": {"retry_retries_total": 4.0}, "events": 7, "spans": 3,
        }}
        rebuilt = report_from_dict(json.loads(json.dumps(older)))
        assert rebuilt.retry_stats.retries == 4
        assert report_to_dict(rebuilt) == payload


class TestFileIO:
    def test_save_and_load(self, tiny_scan_study, tmp_path):
        path = tmp_path / "scan.json"
        save_report(tiny_scan_study.report, path)
        rebuilt = load_report(path)
        assert rebuilt.mavs_per_app() == tiny_scan_study.report.mavs_per_app()

    def test_file_is_plain_json(self, tiny_scan_study, tmp_path):
        path = tmp_path / "scan.json"
        save_report(tiny_scan_study.report, path)
        payload = json.loads(path.read_text())
        assert payload["format_version"] == 1
        assert isinstance(payload["findings"], list)

    def test_analysis_runs_on_loaded_report(self, tiny_scan_study, tmp_path):
        """The offline workflow: load yesterday's scan, rebuild Table 3."""
        from repro.analysis.tables import table3

        path = tmp_path / "scan.json"
        save_report(tiny_scan_study.report, path)
        rebuilt = load_report(path)
        table = table3(rebuilt, tiny_scan_study.census)
        assert table.as_dicts()[-1]["# MAVs"] == len(
            tiny_scan_study.report.vulnerable_ips()
        )


class TestVersioning:
    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            report_from_dict({"format_version": 999})

    def test_missing_version_rejected(self):
        with pytest.raises(ValueError):
            report_from_dict({})

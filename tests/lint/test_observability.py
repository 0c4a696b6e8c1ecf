"""OBS001 (dynamic metric names), checked by the per-module walk."""

import textwrap

from repro.lint.cli import default_root
from repro.lint.determinism import DeterminismAuditor


def audit(tmp_path, source):
    (tmp_path / "mod.py").write_text(textwrap.dedent(source))
    return DeterminismAuditor(tmp_path).run()


def rules(findings):
    return [finding.rule for finding in findings]


class TestDynamicMetricNames:
    def test_fstring_name_is_flagged(self, tmp_path):
        findings = audit(tmp_path, """
            def charge(registry, host):
                registry.counter(f"probes_{host}_total").inc()
        """)
        assert rules(findings) == ["OBS001"]
        assert "f-string" in findings[0].message

    def test_concatenation_with_variable_is_flagged(self, tmp_path):
        findings = audit(tmp_path, """
            def charge(registry, slug):
                registry.counter("depth_" + slug).inc()
        """)
        assert rules(findings) == ["OBS001"]

    def test_percent_formatting_is_flagged(self, tmp_path):
        findings = audit(tmp_path, """
            from repro.obs.metrics import series_key

            def charge(metrics, port):
                metrics.pending[series_key("lat_%s" % port)] = 1
        """)
        assert rules(findings) == ["OBS001"]

    def test_name_passed_by_keyword_is_flagged(self, tmp_path):
        findings = audit(tmp_path, """
            def charge(metrics, slug):
                metrics.counter(name=f"hits_{slug}").inc()
        """)
        assert rules(findings) == ["OBS001"]

    def test_str_format_is_flagged(self, tmp_path):
        findings = audit(tmp_path, """
            def charge(registry, host):
                registry.counter("probes_{}_total".format(host)).inc()
        """)
        assert rules(findings) == ["OBS001"]

    def test_series_key_by_keyword_is_flagged(self, tmp_path):
        findings = audit(tmp_path, """
            from repro.obs import metrics

            def charge(registry, slug):
                registry.pending[metrics.series_key(name=f"hits_{slug}")] = 1
        """)
        assert rules(findings) == ["OBS001"]

    def test_deferred_writer_keys_and_aliases_are_audited_too(self, tmp_path):
        findings = audit(tmp_path, """
            from repro.obs.metrics import series_key

            def charge(telemetry, slug):
                key = series_key(f"verdicts_{slug}_total")
                counter = telemetry.metrics.counter
                counter("runs_" + slug).inc()
        """)
        assert rules(findings) == ["OBS001", "OBS001"]

    def test_finding_carries_file_and_line(self, tmp_path):
        (finding,) = audit(tmp_path, """
            def charge(registry, host):
                registry.counter(f"x_{host}").inc()
        """)
        assert finding.path.endswith("mod.py")
        assert finding.line == 3


class TestSanctionedNames:
    def test_constant_name_with_labels_is_fine(self, tmp_path):
        assert audit(tmp_path, """
            def charge(registry, host):
                registry.counter("probes_total", host=host).inc()
                registry.counter(name="probes_total", host=host).inc()
        """) == []

    def test_constant_through_a_variable_is_fine(self, tmp_path):
        assert audit(tmp_path, """
            FUNNEL = "funnel_hosts_total"

            def charge(registry, stage):
                registry.counter(FUNNEL, stage=stage).inc()
        """) == []

    def test_constant_concatenation_is_fine(self, tmp_path):
        assert audit(tmp_path, """
            def charge(registry):
                registry.counter("probes_" + "total").inc()
        """) == []

    def test_fstring_without_fields_is_fine(self, tmp_path):
        assert audit(tmp_path, """
            def charge(registry):
                registry.counter(f"probes_total").inc()
        """) == []

    def test_non_factory_calls_are_ignored(self, tmp_path):
        assert audit(tmp_path, """
            def log(events, host):
                events.info(f"probing {host}")
        """) == []

    def test_unparseable_file_reports_lnt001(self, tmp_path):
        findings = audit(tmp_path, "def broken(:\n")
        assert rules(findings) == ["LNT001"]


class TestRepoIsClean:
    def test_the_package_has_no_dynamic_metric_names(self):
        findings = DeterminismAuditor(default_root()).run()
        assert [f for f in findings if f.rule == "OBS001"] == []

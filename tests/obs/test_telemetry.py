"""Tests for the Telemetry handle."""

import json

import pytest

from repro.obs.metrics import series_key
from repro.obs.telemetry import FUNNEL_STAGES, Telemetry
from repro.util.clock import SimClock


class TestFunnel:
    def test_invariant_in_equals_out_plus_dropped(self):
        telemetry = Telemetry()
        telemetry.funnel("masscan", 100, 40)
        telemetry.funnel("masscan", 50, 10)
        value = telemetry.metrics.counter_value
        hosts_in = value("funnel_hosts_total", stage="masscan", flow="in")
        out = value("funnel_hosts_total", stage="masscan", flow="out")
        dropped = value("funnel_hosts_total", stage="masscan", flow="dropped")
        assert (hosts_in, out, dropped) == (150, 50, 100)
        assert hosts_in == out + dropped

    def test_stage_cannot_emit_more_than_it_received(self):
        with pytest.raises(ValueError):
            Telemetry().funnel("prefilter", 3, 4)

    def test_funnel_table_lists_all_stages(self):
        telemetry = Telemetry()
        telemetry.funnel("masscan", 10, 4)
        rendered = telemetry.funnel_table().render()
        for stage in FUNNEL_STAGES:
            assert stage in rendered
        assert "10" in rendered and "4" in rendered and "6" in rendered


class TestExports:
    def test_jsonl_lists_events_then_spans(self):
        telemetry = Telemetry()
        telemetry.events.info("pipeline", "sweep-start")
        with telemetry.tracer.span("sweep"):
            pass
        lines = telemetry.export_jsonl().strip().split("\n")
        kinds = [json.loads(line)["kind"] for line in lines]
        assert kinds == ["event", "span"]

    def test_jsonl_is_deterministic(self):
        def build():
            clock = SimClock()
            telemetry = Telemetry(clock=clock)
            telemetry.events.info("s", "n", host="1.2.3.4", b=2, a=1)
            clock.advance(3)
            with telemetry.tracer.span("stage", z=1):
                clock.advance(1)
            return telemetry.export_jsonl()

        assert build() == build()

    def test_export_dispatch(self):
        telemetry = Telemetry()
        telemetry.metrics.counter("x_total").inc()
        assert telemetry.export("prometheus") == telemetry.export_prometheus()
        assert telemetry.export("jsonl") == telemetry.export_jsonl()
        assert telemetry.export("funnel").startswith("Stage funnel")
        with pytest.raises(ValueError):
            telemetry.export("xml")

    def test_snapshot_restore_round_trips_everything(self):
        clock = SimClock()
        telemetry = Telemetry(clock=clock)
        telemetry.events.info("s", "n")
        telemetry.metrics.counter("x_total").inc()
        telemetry.metrics.observed[series_key("lat")].append(0.3)
        open_span = telemetry.tracer.start("sweep")
        state = json.loads(json.dumps(telemetry.snapshot_state()))

        restored = Telemetry(clock=clock)
        restored.restore_state(state)
        assert restored.tracer.active.name == "sweep"
        restored.tracer.end(restored.tracer.active)
        telemetry.tracer.end(open_span)
        assert restored.export_jsonl() == telemetry.export_jsonl()
        assert restored.export_prometheus() == telemetry.export_prometheus()


class TestFunnelQuarantine:
    def test_quarantined_flow_extends_the_invariant(self):
        """in = out + dropped + quarantined, per stage."""
        telemetry = Telemetry()
        telemetry.funnel("prefilter", 100, 60, quarantined=15)
        value = telemetry.metrics.counter_value
        hosts_in = value("funnel_hosts_total", stage="prefilter", flow="in")
        out = value("funnel_hosts_total", stage="prefilter", flow="out")
        dropped = value("funnel_hosts_total", stage="prefilter", flow="dropped")
        quarantined = value(
            "funnel_hosts_total", stage="prefilter", flow="quarantined"
        )
        assert (hosts_in, out, dropped, quarantined) == (100, 60, 25, 15)
        assert hosts_in == out + dropped + quarantined

    def test_out_plus_quarantined_cannot_exceed_in(self):
        with pytest.raises(ValueError):
            Telemetry().funnel("tsunami", 10, 8, quarantined=3)

    def test_zero_quarantine_exports_no_quarantined_series(self):
        """Sweeps without a supervisor must export exactly the series
        they always did (byte-compat with pre-supervisor telemetry)."""
        plain = Telemetry()
        plain.funnel("masscan", 10, 4)
        names = {
            key for key in plain.metrics.snapshot_state()["counters"]
            if "quarantined" in key
        }
        assert names == set()

    def test_funnel_table_shows_quarantined_column(self):
        telemetry = Telemetry()
        telemetry.funnel("masscan", 10, 4, quarantined=2)
        rendered = telemetry.funnel_table().render()
        assert "quarantined" in rendered
        assert "2" in rendered

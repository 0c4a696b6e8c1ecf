"""Acceptance tests for the pipeline's telemetry layer.

Pins the two ISSUE-level guarantees:

* the stage funnel reconciles *exactly* with the ScanReport totals
  (hosts in = hosts out + dropped at every stage);
* a sweep killed mid-flight and resumed from its checkpoint emits a
  byte-identical JSONL telemetry export versus an uninterrupted run.
"""

import pytest

from repro.apps.base import AppInstance
from repro.apps.catalog import create_instance, scanned_ports
from repro.core.checkpoint import Checkpointer
from repro.core.coverage import CoverageReport
from repro.core.pipeline import ScanPipeline
from repro.core.retry import RetryPolicy
from repro.core.serialize import report_to_dict
from repro.net.chaos import ChaosTransport, FaultPlan
from repro.net.host import Host, Service
from repro.net.ipv4 import IPv4Address
from repro.net.network import SimulatedInternet
from repro.net.transport import InMemoryTransport, Transport
from repro.obs.events import EventLog
from repro.obs.telemetry import FUNNEL_STAGES, Telemetry
from repro.util.clock import SimClock

APPS = (
    ("polynote", 8192, True), ("docker", 2375, True), ("hadoop", 8088, True),
    ("grav", 80, False), ("consul", 8500, True), ("zeppelin", 8080, False),
    ("nomad", 4646, True), ("ajenti", 8000, False), ("jenkins", 8080, False),
    ("adminer", 80, False),
)


def build_world(decoys: int = 5):
    """Ten AWE hosts (some vulnerable) plus empty decoy addresses."""
    internet = SimulatedInternet()
    ips = []
    for index, (slug, port, vulnerable) in enumerate(APPS):
        ip = IPv4Address.parse(f"93.184.{100 + index % 2}.{10 + index}")
        host = Host(ip)
        host.add_service(
            Service(
                port,
                app=AppInstance(create_instance(slug, vulnerable=vulnerable), port),
            )
        )
        internet.add_host(host)
        ips.append(ip)
    for offset in range(decoys):
        ips.append(IPv4Address.parse(f"93.184.102.{50 + offset}"))
    return internet, ips


class TestFunnelReconciliation:
    def test_funnel_reconciles_with_report_totals(self):
        internet, ips = build_world()
        pipeline = ScanPipeline(
            InMemoryTransport(internet), scanned_ports(), seed=7,
            batch_size=4, fingerprint=False,
        )
        report = pipeline.run(ips)

        def funnel(stage, flow):
            return pipeline.telemetry.metrics.counter_value(
                "funnel_hosts_total", stage=stage, flow=flow
            )

        # stage I: every candidate address in, hosts with open ports out
        assert funnel("masscan", "in") == report.port_scan.addresses_scanned
        assert funnel("masscan", "out") == len(report.port_scan.open_ports)
        # stage II: open hosts in, signature-matched hosts out
        assert funnel("prefilter", "in") == funnel("masscan", "out")
        assert funnel("prefilter", "out") == report.total_awe_hosts()
        # stage III: candidates in, verified-vulnerable hosts out
        assert funnel("tsunami", "in") == funnel("prefilter", "out")
        assert funnel("tsunami", "out") == len(report.vulnerable_ips())
        # conservation at every stage
        for stage in FUNNEL_STAGES:
            assert funnel(stage, "in") == (
                funnel(stage, "out") + funnel(stage, "dropped")
            )
        # this world actually exercises every drop edge
        assert funnel("masscan", "dropped") > 0
        assert funnel("tsunami", "dropped") > 0

    def test_the_handle_is_the_record_and_the_report_holds_no_copy(self):
        internet, ips = build_world(decoys=0)
        pipeline = ScanPipeline(
            InMemoryTransport(internet), scanned_ports(), seed=7,
            fingerprint=False,
        )
        report = pipeline.run(ips)
        telemetry = pipeline.telemetry
        assert len(telemetry.events) > 0
        assert telemetry.tracer.finished_count > 0
        assert telemetry.metrics.counter_value("masscan_addresses_total") == len(ips)
        assert "telemetry" not in report_to_dict(report)

    def test_the_coverage_ledger_keeps_the_funnels_stages(self):
        """One stage tuple: the coverage ledger and its table list the
        funnel's stages, in funnel order, its serialised form names the
        same stages, and each ledger charges what its funnel row counts."""
        internet, ips = build_world()
        pipeline = ScanPipeline(
            InMemoryTransport(internet), scanned_ports(), seed=7,
            batch_size=4, fingerprint=False,
        )
        coverage = pipeline.run(ips).coverage
        assert tuple(CoverageReport().stages) == FUNNEL_STAGES
        assert tuple(coverage.stages) == FUNNEL_STAGES
        assert set(coverage.to_dict()["stages"]) == set(FUNNEL_STAGES)
        rows = [
            line.split()[0] for line in coverage.render().splitlines()
            if line.split() and line.split()[0] in FUNNEL_STAGES
        ]
        assert tuple(rows) == FUNNEL_STAGES
        value = pipeline.telemetry.metrics.counter_value
        for stage, ledger in coverage.stages.items():
            funnel = {"name": "funnel_hosts_total", "stage": stage}
            assert value(**funnel, flow="in") == ledger.entered
            assert value(**funnel, flow="out") == ledger.completed


class SimulatedCrash(BaseException):
    """A kill signal no pipeline layer may swallow."""


class KillSwitch(Transport):
    """Decorator that dies after a fixed number of wire operations."""

    def __init__(self, inner: Transport, die_after: int) -> None:
        super().__init__(enforce_ethics=inner.enforce_ethics)
        self.inner = inner
        self.stats = inner.stats
        self.die_after = die_after
        self.operations = 0

    def _tick(self) -> None:
        self.operations += 1
        if self.operations > self.die_after:
            raise SimulatedCrash(f"killed after {self.die_after} operations")

    def _port_open(self, ip, port):
        self._tick()
        return self.inner._port_open(ip, port)

    def _exchange(self, ip, port, scheme, request):
        self._tick()
        return self.inner._exchange(ip, port, scheme, request)

    def fetch_certificate(self, ip, port):
        self._tick()
        return self.inner.fetch_certificate(ip, port)

    def snapshot_state(self):
        return self.inner.snapshot_state()

    def restore_state(self, state):
        self.inner.restore_state(state)


PLAN = FaultPlan(
    syn_loss=0.05, request_loss=0.05, reset_rate=0.02,
    flap_rate=0.2, flap_down=120.0, flap_period=600.0,
)


def run_arm(die_after=None, checkpoint=None, seed=3, events_level="info"):
    """One pipeline sweep over a freshly built chaotic world."""
    internet, ips = build_world(decoys=0)
    clock = SimClock()
    transport = ChaosTransport(
        InMemoryTransport(internet), PLAN, seed=21, clock=clock
    )
    if die_after is not None:
        transport = KillSwitch(transport, die_after)
    pipeline = ScanPipeline(
        transport, scanned_ports(), seed=seed, batch_size=3, fingerprint=False,
        retry_policy=RetryPolicy(max_attempts=3, base_delay=0.5, max_delay=4.0),
        clock=clock, telemetry=Telemetry(clock=clock, events_level=events_level),
    )
    report = pipeline.run(ips, checkpoint=checkpoint)
    return pipeline, report


class TestSuppressedDebugEvents:
    """The three per-probe debug events (a chaos fault, an exhausted
    retry, a signature match) are asked for before they are built."""

    def test_suppressed_ones_are_counted_but_never_built(self, monkeypatch):
        loud, _ = run_arm(events_level="debug")
        debug_events = loud.telemetry.events.select(level="debug")
        assert {(e.stage, e.name) for e in debug_events} == {
            ("chaos", "fault"), ("retry", "exhausted"),
            ("prefilter", "signature-match"),
        }
        assert loud.telemetry.events.suppressed == 0
        match = loud.telemetry.events.select(name="signature-match")[0]
        assert isinstance(dict(match.fields)["candidates"], list)

        def built(self, *args, **fields):
            raise AssertionError(f"a suppressed debug event was built: {args}")

        monkeypatch.setattr(EventLog, "debug", built)
        quiet, _ = run_arm()
        assert quiet.telemetry.events.suppressed == len(debug_events)
        assert quiet.telemetry.events.select(level="debug") == []
        # the events that are kept are the same ones either way
        assert [e.to_dict() for e in quiet.telemetry.events] == [
            e.to_dict() for e in loud.telemetry.events if e.level != "debug"
        ]


class TestResumeTelemetry:
    @pytest.mark.parametrize("die_after", [50, 120, 200])
    def test_killed_and_resumed_sweep_emits_identical_jsonl(
        self, tmp_path, die_after
    ):
        """Acceptance: resume telemetry is byte-identical to one clean run."""
        clean_pipeline, clean_report = run_arm()
        expected = clean_pipeline.telemetry.export_jsonl()
        assert expected  # the dump is non-trivial

        ckpt = Checkpointer(tmp_path / "scan.ckpt")
        with pytest.raises(SimulatedCrash):
            run_arm(die_after=die_after, checkpoint=ckpt)
        resumed_pipeline, resumed_report = run_arm(checkpoint=ckpt)

        assert resumed_pipeline.telemetry.export_jsonl() == expected
        assert (
            resumed_pipeline.telemetry.export_prometheus()
            == clean_pipeline.telemetry.export_prometheus()
        )


class TestChaosRetryTelemetry:
    def test_sweep_under_chaos_reports_nonzero_retry_counters(self):
        """Retry and chaos counters reach the sweep's telemetry, and the
        masscan funnel takes in exactly the frame."""
        internet, ips = build_world(decoys=0)
        clock = SimClock()
        transport = ChaosTransport(
            InMemoryTransport(internet),
            FaultPlan(syn_loss=0.3, request_loss=0.3),
            seed=5,
            clock=clock,
        )
        pipeline = ScanPipeline(
            transport, scanned_ports(), seed=3, fingerprint=False,
            retry_policy=RetryPolicy(max_attempts=4, base_delay=0.5, max_delay=4.0),
            clock=clock,
        )
        report = pipeline.run(ips)
        assert report.retry_stats.retries > 0
        value = pipeline.telemetry.metrics.counter_value
        assert value("retry_retries_total") > 0
        assert value("chaos_faults_total", kind="syn-drop") > 0
        assert value("funnel_hosts_total", stage="masscan", flow="in") == len(ips)

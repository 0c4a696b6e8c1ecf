"""Error-path coverage: ethics enforcement through decorator chains and
plugin-crash isolation in the Tsunami engine."""

import logging

import pytest

from repro.apps.base import AppInstance
from repro.apps.catalog import create_instance
from repro.core.tsunami.engine import TsunamiEngine
from repro.core.tsunami.plugins import plugin_for
from repro.net.chaos import ChaosTransport, FaultPlan
from repro.net.host import Host, Service
from repro.net.http import HttpRequest, Scheme
from repro.net.ipv4 import IPv4Address
from repro.net.network import SimulatedInternet
from repro.net.transport import EthicsViolation, InMemoryTransport


@pytest.fixture()
def world():
    internet = SimulatedInternet()
    ip = IPv4Address.parse("93.184.216.80")
    host = Host(ip)
    host.add_service(
        Service(8192, app=AppInstance(create_instance("polynote"), 8192))
    )
    internet.add_host(host)
    return internet, ip


class TestEthicsThroughDecorators:
    """The ethics gate must hold no matter how the transport is wrapped."""

    def chain(self, internet, enforce=True):
        return ChaosTransport(
            ChaosTransport(
                InMemoryTransport(internet, enforce_ethics=enforce), FaultPlan()
            ),
            FaultPlan(),
        )

    @pytest.mark.parametrize(
        "request_",
        [
            HttpRequest.post("/admin"),
            HttpRequest("PUT", "/api/settings"),
            HttpRequest("DELETE", "/api/users/1"),
        ],
    )
    def test_state_changing_requests_refused(self, world, request_):
        internet, ip = world
        chain = self.chain(internet)
        with pytest.raises(EthicsViolation):
            chain.request(ip, 8192, Scheme.HTTP, request_)

    def test_refused_requests_never_reach_the_wire(self, world):
        internet, ip = world
        chain = self.chain(internet)
        with pytest.raises(EthicsViolation):
            chain.request(ip, 8192, Scheme.HTTP, HttpRequest.post("/ws"))
        assert chain.stats.http_requests == 0

    def test_opt_out_is_explicit_and_propagates(self, world):
        """Honeypot/attacker components run with enforcement off."""
        internet, ip = world
        chain = self.chain(internet, enforce=False)
        assert not chain.enforce_ethics
        response = chain.request(ip, 8192, Scheme.HTTP, HttpRequest.post("/ws"))
        assert response is not None


class Crashing:
    slug = "crashing"
    title = "A check with a bug"

    def detect(self, context):
        raise RuntimeError("kaboom: plugin bug")


class TestPluginCrashIsolation:
    def engine(self, internet):
        return TsunamiEngine(
            InMemoryTransport(internet),
            plugins=(Crashing(), plugin_for("polynote")),
        )

    def test_other_plugins_detections_survive_a_crash(self, world):
        internet, ip = world
        engine = self.engine(internet)
        reports = engine.scan_target(
            ip, 8192, Scheme.HTTP, ("crashing", "polynote")
        )
        assert [report.slug for report in reports] == ["polynote"]
        assert engine.stats.plugin_errors == 1
        assert engine.stats.detections == 1

    def test_crash_is_logged_with_plugin_and_target(self, world, caplog):
        internet, ip = world
        engine = self.engine(internet)
        with caplog.at_level(logging.ERROR, logger="repro.core.tsunami.engine"):
            engine.scan_target(ip, 8192, Scheme.HTTP, ("crashing", "polynote"))
        crash_logs = [
            record for record in caplog.records
            if "crashed" in record.getMessage()
        ]
        assert len(crash_logs) == 1
        message = crash_logs[0].getMessage()
        assert "crashing" in message
        assert "93.184.216.80" in message
        assert "kaboom" in str(crash_logs[0].exc_text)  # traceback attached

    def test_repeated_crashes_do_not_abort_a_batch(self, world):
        internet, ip = world
        engine = self.engine(internet)
        for _ in range(5):
            reports = engine.scan_target(
                ip, 8192, Scheme.HTTP, ("crashing", "polynote")
            )
            assert [report.slug for report in reports] == ["polynote"]
        assert engine.stats.plugin_errors == 5

"""Tests for the transport abstraction and its ethics enforcement."""

import pytest

from repro.apps.base import AppInstance
from repro.apps.catalog import create_instance
from repro.net.host import Host, HostKind, Service
from repro.net.http import HttpRequest, HttpResponse, Scheme
from repro.net.ipv4 import IPv4Address
from repro.net.network import SimulatedInternet
from repro.net.transport import EthicsViolation, InMemoryTransport, Transport
from repro.util.errors import TransportError


class _Silent(Transport):
    """The least a backend can be: the two hooks, nothing overridden."""

    def _port_open(self, ip, port):
        return False

    def _exchange(self, ip, port, scheme, request):
        raise NotImplementedError


@pytest.fixture()
def small_internet():
    internet = SimulatedInternet()
    host = Host(IPv4Address.parse("203.0.113.10"), HostKind.AWE)
    app = create_instance("wordpress", vulnerable=True)
    host.add_service(Service(80, app=AppInstance(app, 80)))
    internet.add_host(host)
    return internet, host


class TestEthicsEnforcement:
    def test_post_refused_during_scan(self, small_internet):
        internet, host = small_internet
        transport = InMemoryTransport(internet)
        with pytest.raises(EthicsViolation):
            transport.request(host.ip, 80, Scheme.HTTP, HttpRequest.post("/x"))

    def test_get_allowed(self, small_internet):
        internet, host = small_internet
        transport = InMemoryTransport(internet)
        response = transport.request(
            host.ip, 80, Scheme.HTTP, HttpRequest.get("/wp-admin/install.php")
        )
        assert response.status == 200

    def test_enforcement_can_be_disabled_for_honeypots(self, small_internet):
        internet, host = small_internet
        transport = InMemoryTransport(internet, enforce_ethics=False)
        response = transport.request(
            host.ip, 80, Scheme.HTTP,
            HttpRequest.post("/wp-admin/install.php", "admin_password=x"),
        )
        assert response.status == 200


class TestRedirectFollowing:
    def test_follows_local_redirect(self, small_internet):
        internet, host = small_internet
        transport = InMemoryTransport(internet)
        # Vulnerable WordPress redirects / to the installer.
        response = transport.get(host.ip, 80, "/")
        assert "Installation" in response.body

    def test_redirect_limit(self):
        internet = SimulatedInternet()
        host = Host(IPv4Address.parse("203.0.113.11"))
        host.add_service(
            Service(80, responder=lambda r: HttpResponse.redirect(r.path))
        )
        internet.add_host(host)
        transport = InMemoryTransport(internet)
        response = transport.get(host.ip, 80, "/loop", follow_redirects=3)
        assert response.is_redirect  # gave up, returned last redirect

    def test_cross_host_redirect_not_followed(self):
        internet = SimulatedInternet()
        host = Host(IPv4Address.parse("203.0.113.12"))
        host.add_service(
            Service(
                80,
                responder=lambda r: HttpResponse.redirect("http://93.184.216.34/"),
            )
        )
        internet.add_host(host)
        transport = InMemoryTransport(internet)
        response = transport.get(host.ip, 80, "/")
        assert response.is_redirect  # stopped at the cross-host hop

    def test_same_host_absolute_redirect_followed(self):
        internet = SimulatedInternet()
        ip = IPv4Address.parse("203.0.113.13")
        host = Host(ip)

        def responder(request):
            if request.path == "/":
                return HttpResponse.redirect(f"http://{ip}/landed")
            return HttpResponse.ok("landed")

        host.add_service(Service(80, responder=responder))
        internet.add_host(host)
        response = InMemoryTransport(internet).get(ip, 80, "/")
        assert response.body == "landed"


class TestStats:
    def test_probe_and_request_counted(self, small_internet):
        internet, host = small_internet
        transport = InMemoryTransport(internet)
        transport.syn_probe(host.ip, 80)
        transport.get(host.ip, 80, "/wp-login.php")
        assert transport.stats.syn_probes == 1
        assert transport.stats.http_requests >= 1

    def test_per_slash24_accounting(self, small_internet):
        internet, host = small_internet
        transport = InMemoryTransport(internet)
        transport.get(host.ip, 80, "/wp-login.php")
        block = host.ip.value & 0xFFFFFF00
        assert transport.stats.requests_per_slash24[block] >= 1


def test_dark_address_raises_transport_error():
    transport = InMemoryTransport(SimulatedInternet())
    with pytest.raises(TransportError):
        transport.get(IPv4Address.parse("198.18.0.1"), 80, "/")


class TestProbePorts:
    def test_matches_per_port_probing(self, small_internet):
        internet, host = small_internet
        batched = InMemoryTransport(internet)
        per_port = InMemoryTransport(internet)
        ports = (22, 80, 443, 8080)
        assert batched.probe_ports([host.ip.value], ports) == {
            host.ip.value: tuple(
                port for port in ports if per_port.syn_probe(host.ip, port)
            )
        }

    def test_counts_one_probe_per_port(self, small_internet):
        internet, host = small_internet
        transport = InMemoryTransport(internet)
        transport.probe_ports([host.ip.value], (22, 80, 443))
        assert transport.stats.syn_probes == 3

    def test_dead_address_probes_in_one_lookup(self):
        transport = InMemoryTransport(SimulatedInternet())
        dead = IPv4Address.parse("52.1.2.3").value
        assert transport.probe_ports([dead], (80, 443)) == {}
        assert transport.stats.syn_probes == 2

    def test_a_batch_answers_in_probe_order_as_the_base_class_does(
        self, small_internet
    ):
        """One call for many addresses: the open ones in the order asked,
        ports sorted, every (address, port) counted — the same answer the
        base class gives from one ``syn_probe`` per (address, port)."""
        internet, host = small_internet
        dead = IPv4Address.parse("52.1.2.3").value
        values = [dead, host.ip.value, dead + 1]
        ports = (8080, 443, 80, 22)
        batched = InMemoryTransport(internet)
        per_port = InMemoryTransport(internet)
        answer = batched.probe_ports(values, ports)
        assert answer == Transport.probe_ports(per_port, values, ports)
        assert list(answer) == [host.ip.value]
        assert list(answer[host.ip.value]) == sorted(answer[host.ip.value])
        assert batched.stats.syn_probes == per_port.stats.syn_probes == 12


class TestFork:
    def test_fork_gets_private_stats(self, small_internet):
        internet, host = small_internet
        parent = InMemoryTransport(internet)
        child = parent.fork(shard_seed=12345)
        child.syn_probe(host.ip, 80)
        assert child.stats.syn_probes == 1
        assert parent.stats.syn_probes == 0

    def test_fork_preserves_ethics_setting(self, small_internet):
        internet, _host = small_internet
        parent = InMemoryTransport(internet, enforce_ethics=False)
        assert parent.fork(shard_seed=1).enforce_ethics is False

    def test_base_transport_fork_is_abstract(self):
        with pytest.raises(NotImplementedError):
            _Silent().fork(shard_seed=1)


class TestStatsMerge:
    def test_merge_sums_counters_and_blocks(self, small_internet):
        internet, host = small_internet
        a = InMemoryTransport(internet)
        b = InMemoryTransport(internet)
        a.syn_probe(host.ip, 80)
        a.get(host.ip, 80, "/wp-login.php")
        b.syn_probe(host.ip, 80)
        b.get(host.ip, 80, "/wp-login.php")
        merged_probes = a.stats.syn_probes + b.stats.syn_probes
        a.stats.merge(b.stats)
        assert a.stats.syn_probes == merged_probes
        block = host.ip.value & 0xFFFFFF00
        assert a.stats.requests_per_slash24[block] == 2 * b.stats.requests_per_slash24[block]

    def test_dict_round_trip(self, small_internet):
        from repro.net.transport import TransportStats

        internet, host = small_internet
        transport = InMemoryTransport(internet)
        transport.syn_probe(host.ip, 80)
        transport.get(host.ip, 80, "/wp-login.php")
        restored = TransportStats.from_dict(transport.stats.to_dict())
        assert restored.to_dict() == transport.stats.to_dict()
        assert restored.requests_per_slash24 == transport.stats.requests_per_slash24


class _PassThrough(Transport):
    """A decorator that adds nothing and does not mention hints."""

    def __init__(self, inner):
        super().__init__(enforce_ethics=inner.enforce_ethics)
        self.inner = inner
        self.stats = inner.stats

    def _port_open(self, ip, port):
        return self.inner._port_open(ip, port)

    def _exchange(self, ip, port, scheme, request):
        return self.inner._exchange(ip, port, scheme, request)


class TestLivenessHintsThroughDecorators:
    def test_a_backend_that_cannot_know_says_so(self):
        assert _Silent().live_values_in(0, 2**32 - 1) is None
        assert _PassThrough(_Silent()).live_values_in(0, 2**32 - 1) is None

    def test_a_decorator_hints_as_its_backend_does(self, small_internet):
        from repro.net.chaos import ChaosTransport, FaultPlan

        internet, host = small_internet
        base = host.ip.value & 0xFFFFFF00
        chain = _PassThrough(
            ChaosTransport(InMemoryTransport(internet), FaultPlan(syn_loss=1.0))
        )
        assert list(chain.live_values_in(base, base + 255)) == [host.ip.value]

    def test_a_wrapper_without_the_method_does_not_change_a_retry_sweep(self):
        """Report, JSONL and Prometheus bytes under chaos + retry are those
        of the bare chain: a wrapper cannot silently turn a hinted sweep
        into a per-address one."""
        from repro.apps.catalog import scanned_ports
        from repro.core.pipeline import ScanPipeline
        from repro.core.retry import RetryPolicy
        from repro.core.serialize import report_to_dict
        from repro.net.chaos import ChaosTransport
        from repro.util.clock import SimClock
        from tests.core.test_parallel import PLAN, build_world, whole_blocks

        def artifacts(wrap):
            internet, ips = build_world()
            frame = whole_blocks(ips)
            clock = SimClock()
            chaos = ChaosTransport(
                InMemoryTransport(internet), PLAN, seed=21, clock=clock
            )
            transport = wrap(chaos)
            pipeline = ScanPipeline(
                transport, scanned_ports(), seed=7, batch_size=100,
                fingerprint=False, clock=clock,
                retry_policy=RetryPolicy(max_attempts=3, base_delay=0.5, max_delay=4.0),
            )
            report = pipeline.run(frame)
            assert report.retry_stats.retries and chaos.faults["syn-drop"]
            return (
                report_to_dict(report),
                pipeline.telemetry.export_jsonl(),
                pipeline.telemetry.export_prometheus(),
                transport.stats.to_dict(),
                clock.now,
            )

        assert artifacts(_PassThrough) == artifacts(lambda chain: chain)

"""Tests for the chaos transport and its fault taxonomy."""

import pytest

from repro.apps.base import AppInstance
from repro.apps.catalog import create_instance, scanned_ports
from repro.core.pipeline import ScanPipeline
from repro.core.retry import RetryPolicy
from repro.net.chaos import ChaosTransport, FaultPlan
from repro.net.host import Host, Service
from repro.net.http import HttpRequest, Scheme
from repro.net.ipv4 import IPv4Address
from repro.net.network import SimulatedInternet
from repro.net.transport import EthicsViolation, InMemoryTransport
from repro.util.clock import SimClock
from repro.util.errors import ConnectionReset, ConnectionTimeout, TransportError


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


class TestFaultPlan:
    def test_zero_plan_is_transparent(self, world):
        internet, ip = world
        transport = ChaosTransport(InMemoryTransport(internet))
        assert transport.syn_probe(ip, 8192)
        assert transport.get(ip, 8192, "/").status == 200
        assert transport.faults == {}

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(reset_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan.packet_loss(1.5)
        with pytest.raises(ValueError):
            FaultPlan(flap_down=700.0, flap_period=600.0)
        with pytest.raises(ValueError):
            FaultPlan(slow_latency=-1.0)

    def test_packet_loss_shorthand(self):
        plan = FaultPlan.packet_loss(0.25)
        assert plan.syn_loss == plan.request_loss == 0.25
        assert plan.reset_rate == 0.0

    def test_scaled(self):
        plan = FaultPlan(syn_loss=0.2, reset_rate=0.4, slow_latency=5.0)
        half = plan.scaled(0.5)
        assert half.syn_loss == pytest.approx(0.1)
        assert half.reset_rate == pytest.approx(0.2)
        assert half.slow_latency == 5.0  # durations are not rates
        assert plan.scaled(10.0).reset_rate == 1.0  # capped


class TestFaultInjection:
    def test_syn_loss(self, world):
        internet, ip = world
        transport = ChaosTransport(
            InMemoryTransport(internet), FaultPlan(syn_loss=1.0)
        )
        assert not transport.syn_probe(ip, 8192)
        assert transport.faults["syn-drop"] == 1

    def test_partial_syn_loss_statistics(self, world):
        internet, ip = world
        transport = ChaosTransport(
            InMemoryTransport(internet), FaultPlan(syn_loss=0.5), seed=9
        )
        results = [transport.syn_probe(ip, 8192) for _ in range(400)]
        assert 0.4 < sum(results) / len(results) < 0.6

    def test_request_loss(self, world):
        internet, ip = world
        transport = ChaosTransport(
            InMemoryTransport(internet), FaultPlan(request_loss=1.0)
        )
        with pytest.raises(ConnectionTimeout):
            transport.get(ip, 8192, "/")
        assert transport.faults["request-drop"] == 1

    def test_connection_reset(self, world):
        internet, ip = world
        transport = ChaosTransport(
            InMemoryTransport(internet), FaultPlan(reset_rate=1.0)
        )
        with pytest.raises(ConnectionReset):
            transport.get(ip, 8192, "/")
        assert transport.faults["reset"] == 1

    def test_slow_responses_charge_the_clock(self, world):
        internet, ip = world
        clock = SimClock()
        transport = ChaosTransport(
            InMemoryTransport(internet),
            FaultPlan(slow_rate=1.0, slow_latency=30.0),
            clock=clock,
        )
        response = transport.get(ip, 8192, "/")
        assert response.status == 200  # the answer still arrives
        assert clock.now == pytest.approx(30.0)
        assert transport.slow_seconds == pytest.approx(30.0)
        assert transport.faults["slow"] == 1

    def test_truncated_bodies(self, world):
        internet, ip = world
        plain = InMemoryTransport(internet).get(ip, 8192, "/").body
        transport = ChaosTransport(
            InMemoryTransport(internet), FaultPlan(truncate_rate=1.0)
        )
        body = transport.get(ip, 8192, "/").body
        assert len(body) <= len(plain) // 2
        assert transport.faults["truncate"] == 1

    def test_garbled_bodies(self, world):
        internet, ip = world
        plain = InMemoryTransport(internet).get(ip, 8192, "/").body
        transport = ChaosTransport(
            InMemoryTransport(internet), FaultPlan(garble_rate=1.0)
        )
        body = transport.get(ip, 8192, "/").body
        assert body != plain
        assert len(body) == 64
        assert transport.faults["garble"] == 1

    def test_flapping_host_goes_down_and_comes_back(self, world):
        internet, ip = world
        clock = SimClock()
        transport = ChaosTransport(
            InMemoryTransport(internet),
            FaultPlan(flap_rate=1.0, flap_down=120.0, flap_period=600.0),
            clock=clock,
        )
        seen = []
        for _ in range(20):
            seen.append(transport.syn_probe(ip, 8192))
            clock.advance(60.0)
        assert True in seen and False in seen  # down for a while, then back
        assert transport.faults["flap"] == seen.count(False)
        # ~2 of every 10 minutes down
        assert 0.1 < seen.count(False) / len(seen) < 0.4

    def test_slash24_outage_hits_the_whole_block(self, world):
        internet, ip = world
        sibling = IPv4Address(ip.value + 1)
        sibling_host = Host(sibling)
        sibling_host.add_service(
            Service(8192, app=AppInstance(create_instance("polynote"), 8192))
        )
        internet.add_host(sibling_host)
        clock = SimClock()
        transport = ChaosTransport(
            InMemoryTransport(internet),
            FaultPlan(outage_rate=1.0, outage_down=300.0, outage_period=3600.0),
            clock=clock,
        )
        agree, down_seen, up_seen = True, False, False
        for _ in range(24):
            first = transport.syn_probe(ip, 8192)
            second = transport.syn_probe(sibling, 8192)
            agree = agree and (first == second)
            down_seen = down_seen or not first
            up_seen = up_seen or first
            clock.advance(300.0)
        assert agree  # same /24: the outage takes both down together
        assert down_seen and up_seen

    def test_requests_fail_during_flap(self, world):
        internet, ip = world
        clock = SimClock()
        transport = ChaosTransport(
            InMemoryTransport(internet),
            FaultPlan(flap_rate=1.0, flap_down=600.0, flap_period=600.0),
            clock=clock,
        )
        with pytest.raises(ConnectionTimeout):
            transport.get(ip, 8192, "/")
        with pytest.raises(ConnectionTimeout):
            transport.fetch_certificate(ip, 8192)

    def test_certificate_fetch_drops_raise(self, world):
        internet, ip = world
        transport = ChaosTransport(
            InMemoryTransport(internet), FaultPlan(request_loss=1.0)
        )
        # A dropped TLS handshake is a timeout, not a silent "no
        # certificate": callers must be able to tell transient from absent.
        with pytest.raises(ConnectionTimeout):
            transport.fetch_certificate(ip, 8192)
        assert transport.faults["request-drop"] == 1

    def test_deterministic_per_seed(self, world):
        internet, ip = world
        plan = FaultPlan(syn_loss=0.3, request_loss=0.3, reset_rate=0.2)
        runs = []
        for _ in range(2):
            transport = ChaosTransport(InMemoryTransport(internet), plan, seed=42)
            outcomes = []
            for _ in range(60):
                outcomes.append(transport.syn_probe(ip, 8192))
                try:
                    outcomes.append(transport.get(ip, 8192, "/").body)
                except ConnectionTimeout:
                    outcomes.append("timeout")
                except ConnectionReset:
                    outcomes.append("reset")
            runs.append(outcomes)
        assert runs[0] == runs[1]

    def test_snapshot_restore_replays_fault_stream(self, world):
        internet, ip = world
        plan = FaultPlan(syn_loss=0.5)
        transport = ChaosTransport(InMemoryTransport(internet), plan, seed=7)
        for _ in range(10):
            transport.syn_probe(ip, 8192)
        state = transport.snapshot_state()
        tail = [transport.syn_probe(ip, 8192) for _ in range(30)]

        fresh = ChaosTransport(InMemoryTransport(internet), plan, seed=7)
        fresh.restore_state(state)
        assert [fresh.syn_probe(ip, 8192) for _ in range(30)] == tail
        assert fresh.faults == transport.faults  # counters restored too


class TestStatsDelegation:
    def test_decorators_share_innermost_stats(self, world):
        """Regression: wrapped transports must not split load counters."""
        internet, ip = world
        innermost = InMemoryTransport(internet)
        chain = ChaosTransport(ChaosTransport(innermost), FaultPlan())
        assert chain.stats is innermost.stats
        chain.syn_probe(ip, 8192)
        chain.get(ip, 8192, "/")
        assert innermost.stats.syn_probes == 1
        assert innermost.stats.http_requests == 1
        block = ip.value & 0xFFFFFF00
        assert innermost.stats.requests_per_slash24 == {block: 1}

    def test_dropped_operations_still_count_as_load(self, world):
        # An injected drop happens after the request left the scanner: it
        # is still pipeline load, so the shared counters must include it.
        internet, ip = world
        innermost = InMemoryTransport(internet)
        chain = ChaosTransport(innermost, FaultPlan.packet_loss(1.0))
        with pytest.raises(ConnectionTimeout):
            chain.get(ip, 8192, "/")
        assert not chain.syn_probe(ip, 8192)
        assert innermost.stats.http_requests == 1
        assert innermost.stats.syn_probes == 1

    def test_ethics_enforced_through_wrapped_chain(self, world):
        internet, ip = world
        chain = ChaosTransport(
            ChaosTransport(InMemoryTransport(internet), FaultPlan())
        )
        with pytest.raises(EthicsViolation):
            chain.request(ip, 8192, Scheme.HTTP, HttpRequest.post("/admin"))


ALL_FAULTS = FaultPlan(
    syn_loss=0.1,
    request_loss=0.1,
    reset_rate=0.1,
    slow_rate=0.1,
    slow_latency=5.0,
    truncate_rate=0.1,
    garble_rate=0.1,
    flap_rate=0.3,
    flap_down=120.0,
    flap_period=600.0,
    outage_rate=0.3,
    outage_down=120.0,
    outage_period=1200.0,
)


class TestPipelineUnderChaos:
    def _world(self):
        internet = SimulatedInternet()
        ips = []
        # routable block: stage I excludes IANA-reserved TEST-NETs
        base = IPv4Address.parse("93.184.220.10").value
        for offset, slug in enumerate(("polynote", "docker", "hadoop", "grav")):
            ip = IPv4Address(base + offset)
            host = Host(ip)
            port = {"polynote": 8192, "docker": 2375, "hadoop": 8088, "grav": 80}[slug]
            host.add_service(Service(port, app=AppInstance(create_instance(slug), port)))
            internet.add_host(host)
            ips.append(ip)
        return internet, ips

    def test_no_fault_type_crashes_any_stage(self):
        """Acceptance: faults surface as misses, never as exceptions."""
        internet, ips = self._world()
        clock = SimClock()
        transport = ChaosTransport(
            InMemoryTransport(internet), ALL_FAULTS, seed=5, clock=clock
        )
        pipeline = ScanPipeline(transport, scanned_ports(), fingerprint=True)
        pipeline.run(ips)  # must not raise, whatever gets through

    def test_no_fault_type_crashes_with_retries_either(self):
        internet, ips = self._world()
        clock = SimClock()
        transport = ChaosTransport(
            InMemoryTransport(internet), ALL_FAULTS, seed=5, clock=clock
        )
        pipeline = ScanPipeline(
            transport, scanned_ports(), fingerprint=True,
            retry_policy=RetryPolicy(max_attempts=3), clock=clock,
        )
        report = pipeline.run(ips)
        assert report.retry_stats.attempts >= report.retry_stats.operations

    def test_single_fault_types_each_survive_the_pipeline(self):
        internet, ips = self._world()
        single_plans = [
            FaultPlan(syn_loss=0.5),
            FaultPlan(request_loss=0.5),
            FaultPlan(reset_rate=0.5),
            FaultPlan(slow_rate=0.5, slow_latency=2.0),
            FaultPlan(truncate_rate=0.5),
            FaultPlan(garble_rate=0.5),
            FaultPlan(flap_rate=1.0, flap_down=300.0, flap_period=600.0),
            FaultPlan(outage_rate=1.0, outage_down=300.0, outage_period=600.0),
        ]
        for plan in single_plans:
            clock = SimClock()
            transport = ChaosTransport(
                InMemoryTransport(internet), plan, seed=3, clock=clock
            )
            pipeline = ScanPipeline(transport, scanned_ports(), fingerprint=False)
            pipeline.run(ips)  # must not raise


class TestChaosFork:
    def test_fork_is_deterministic_per_shard_seed(self, world):
        """Two forks with the same shard seed behave identically; the
        parallel engine's byte-identity rests on this."""
        internet, ip = world
        plan = FaultPlan(syn_loss=0.3, request_loss=0.3, reset_rate=0.1)

        def outcomes(shard_seed):
            clock = SimClock()
            parent = ChaosTransport(
                InMemoryTransport(internet), plan, seed=21, clock=clock
            )
            child = parent.fork(shard_seed, SimClock())
            results = []
            for _ in range(40):
                results.append(child.syn_probe(ip, 8192))
                try:
                    results.append(child.get(ip, 8192, "/").status)
                except TransportError as exc:
                    results.append(type(exc).__name__)
            return results

        assert outcomes(5) == outcomes(5)
        assert outcomes(5) != outcomes(6)  # shards draw distinct fault streams

    def test_fork_keeps_time_keyed_faults(self, world):
        """Flap/outage membership is a property of the simulated network,
        not of the shard: forks agree on which hosts are affected."""
        internet, ip = world
        plan = FaultPlan(flap_rate=1.0, flap_down=120.0, flap_period=600.0)
        parent = ChaosTransport(
            InMemoryTransport(internet), plan, seed=21, clock=SimClock()
        )
        # same wall of simulated time => same flap windows in every fork
        for t in range(0, 1200, 60):
            clock_a, clock_b = SimClock(), SimClock()
            fork_a = parent.fork(3, clock_a)
            fork_b = parent.fork(9, clock_b)
            clock_a.advance(t)
            clock_b.advance(t)
            assert fork_a.syn_probe(ip, 8192) == fork_b.syn_probe(ip, 8192)

    def test_fork_does_not_touch_parent_stats(self, world):
        internet, ip = world
        parent = ChaosTransport(
            InMemoryTransport(internet), FaultPlan(syn_loss=1.0), seed=21,
            clock=SimClock(),
        )
        child = parent.fork(1, SimClock())
        child.syn_probe(ip, 8192)
        assert child.stats.syn_probes == 1
        assert parent.stats.syn_probes == 0
        assert child.faults == {"syn-drop": 1}
        assert parent.faults == {}


class TestLatencyAndPoisonFaults:
    """The supervised-runtime fault families: hangs, stalls, poison."""

    def test_hang_charges_full_latency_without_watchdog(self, world):
        internet, ip = world
        clock = SimClock()
        transport = ChaosTransport(
            InMemoryTransport(internet), FaultPlan(hang_rate=1.0),
            seed=3, clock=clock,
        )
        with pytest.raises(ConnectionTimeout):
            transport.get(ip, 8192, "/")
        assert clock.now == pytest.approx(3600.0)  # default hang_latency
        assert transport.hang_seconds == pytest.approx(3600.0)
        assert transport.faults.get("hang") == 1

    def test_watchdog_caps_the_hang_charge(self, world):
        internet, ip = world
        clock = SimClock()
        transport = ChaosTransport(
            InMemoryTransport(internet), FaultPlan(hang_rate=1.0),
            seed=3, clock=clock,
        )
        transport.watchdog = 25.0
        with pytest.raises(ConnectionTimeout):
            transport.get(ip, 8192, "/")
        assert clock.now == pytest.approx(25.0)
        assert transport.hang_seconds == pytest.approx(25.0)

    def test_stall_delivers_late_without_watchdog(self, world):
        internet, ip = world
        clock = SimClock()
        transport = ChaosTransport(
            InMemoryTransport(internet),
            FaultPlan(stall_rate=1.0, stall_latency=90.0),
            seed=3, clock=clock,
        )
        response = transport.get(ip, 8192, "/")
        assert response.body  # the bytes do arrive, eventually
        assert clock.now == pytest.approx(90.0)
        assert transport.stall_seconds == pytest.approx(90.0)

    def test_watchdog_abandons_the_stalled_read(self, world):
        internet, ip = world
        clock = SimClock()
        transport = ChaosTransport(
            InMemoryTransport(internet),
            FaultPlan(stall_rate=1.0, stall_latency=90.0),
            seed=3, clock=clock,
        )
        transport.watchdog = 30.0
        with pytest.raises(ConnectionTimeout):
            transport.get(ip, 8192, "/")
        assert clock.now == pytest.approx(30.0)

    def test_poison_raises_a_non_transport_error(self, world):
        """Poison models a parser crash, so it must NOT look like a
        transport fault — the retry executor classifies on that."""
        internet, ip = world
        transport = ChaosTransport(
            InMemoryTransport(internet), FaultPlan(poison_rate=1.0), seed=3
        )
        with pytest.raises(RuntimeError) as excinfo:
            transport.get(ip, 8192, "/")
        assert not isinstance(excinfo.value, TransportError)
        assert transport.faults.get("poison") == 1

    def test_watchdog_survives_fork(self, world):
        internet, _ = world
        transport = ChaosTransport(InMemoryTransport(internet), FaultPlan())
        transport.watchdog = 15.0
        assert transport.fork(5, SimClock()).watchdog == 15.0

    def test_scaled_plan_scales_the_new_rates(self):
        plan = FaultPlan(
            hang_rate=0.1, stall_rate=0.2, poison_rate=0.3, hang_latency=50.0
        )
        scaled = plan.scaled(2.0)
        assert scaled.hang_rate == pytest.approx(0.2)
        assert scaled.stall_rate == pytest.approx(0.4)
        assert scaled.poison_rate == pytest.approx(0.6)
        assert scaled.hang_latency == 50.0  # durations are not rates

    def test_snapshot_roundtrips_latency_fault_state(self, world):
        """Snapshot equality: restoring a snapshot and re-snapshotting
        must reproduce it byte for byte, hang/stall state included."""
        internet, ip = world
        clock = SimClock()
        plan = FaultPlan(hang_rate=0.3, stall_rate=0.3, stall_latency=45.0)
        transport = ChaosTransport(
            InMemoryTransport(internet), plan, seed=11, clock=clock
        )
        for _ in range(20):
            try:
                transport.get(ip, 8192, "/")
            except ConnectionTimeout:
                pass
        assert transport.hang_seconds + transport.stall_seconds > 0
        state = transport.snapshot_state()
        assert state["hang_seconds"] == transport.hang_seconds
        assert state["stall_seconds"] == transport.stall_seconds

        fresh = ChaosTransport(InMemoryTransport(internet), plan, seed=11)
        fresh.restore_state(state)
        assert fresh.snapshot_state() == state

    def test_restore_reads_no_older_format(self, world):
        """``snapshot_state`` writes every field and the journal refuses
        every format but its own, so a state without one is damage, not
        an old checkpoint to be defaulted."""
        internet, _ = world
        transport = ChaosTransport(
            InMemoryTransport(internet), FaultPlan(syn_loss=0.5), seed=7
        )
        state = transport.snapshot_state()
        del state["hang_seconds"], state["stall_seconds"]
        with pytest.raises(KeyError):
            transport.restore_state(state)

"""Stage I is a stateless sender under a retry policy too.

masscan never waits on a target: a re-send is one more SYN at the
configured rate.  So under a :class:`~repro.core.retry.RetryPolicy`
stage I sends each port up to ``max_attempts`` SYNs and stops at the
first SYN/ACK, and nothing else happens — no backoff second on the
clock, no jitter draw, no breaker check, no retry stats.  The executor,
its backoff and its breaker belong to stages II/III, where an HTTP retry
to a live server does wait.  The re-sends are counted once, per batch,
in ``masscan_resends_total`` (and, as packets, in ``syn_probes``).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.base import AppInstance
from repro.apps.catalog import create_instance, scanned_ports
from repro.core.masscan import Masscan
from repro.core.pipeline import ScanPipeline
from repro.core.retry import CircuitBreaker, RetryExecutor, RetryPolicy, RetryStats
from repro.net.chaos import ChaosTransport, FaultPlan
from repro.net.host import Host, Service
from repro.net.ipv4 import IPv4Address
from repro.net.network import SimulatedInternet
from repro.net.transport import InMemoryTransport, Transport
from repro.obs.telemetry import Telemetry
from repro.util.clock import SimClock
from tests.core.test_parallel import APPS

PORTS = (80, 8080, 8888)
POLICY = RetryPolicy(max_attempts=3, base_delay=0.5, max_delay=4.0)


def app_host(text, slug="jupyterlab", port=8888):
    host = Host(IPv4Address.parse(text))
    host.add_service(Service(port, app=AppInstance(create_instance(slug), port)))
    return host


class DropsFirstSyns(InMemoryTransport):
    """Loses the first ``drops`` SYNs to every (address, port), and keeps a
    log of every SYN it was handed; a batch probe is one SYN per port."""

    probe_ports = Transport.probe_ports

    def __init__(self, internet, drops=1):
        super().__init__(internet)
        self.drops = drops
        self.sent: dict[tuple[int, int], int] = {}

    def syn_probe(self, ip, port):
        key = (ip.value, port)
        self.sent[key] = self.sent.get(key, 0) + 1
        if self.sent[key] <= self.drops:
            self.stats.note_probe(ip)
            return False
        return super().syn_probe(ip, port)


def world():
    internet = SimulatedInternet()
    for text in ("93.184.216.20", "93.184.216.32", "93.184.217.7"):
        internet.add_host(app_host(text))
    return internet


def executor(clock=None, breaker=None):
    return RetryExecutor(
        POLICY, rng=random.Random(5), clock=clock, breaker=breaker
    )


class TestMasscanResends:
    def test_a_lost_syn_is_resent_and_the_port_found(self):
        internet = world()
        plain = Masscan(DropsFirstSyns(internet, drops=2), PORTS).scan(
            internet.populated_addresses()
        )
        resent = Masscan(
            DropsFirstSyns(internet, drops=2), PORTS, retry=executor()
        ).scan(internet.populated_addresses())
        assert plain.open_ports == {}
        assert resent.open_ports == {
            ip.value: (8888,) for ip in internet.populated_addresses()
        }

    def test_a_closed_port_takes_every_attempt_an_open_one_stops_at_its_syn_ack(self):
        internet = world()
        transport = DropsFirstSyns(internet, drops=0)
        Masscan(transport, PORTS, retry=executor()).scan(
            internet.populated_addresses()
        )
        for ip in internet.populated_addresses():
            assert transport.sent[ip.value, 8888] == 1
            assert transport.sent[ip.value, 80] == POLICY.max_attempts
            assert transport.sent[ip.value, 8080] == POLICY.max_attempts
        assert transport.stats.syn_probes == sum(transport.sent.values())

    def test_resending_never_waits_draws_or_asks_the_breaker(self):
        internet = world()
        clock = SimClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown=1e9, clock=clock)
        for ip in internet.populated_addresses():
            breaker.record_failure(ip)  # every host's circuit is open
        retry = executor(clock=clock, breaker=breaker)
        rng_before = retry._rng.getstate()
        breaker_before = breaker.snapshot_state()
        result = Masscan(
            DropsFirstSyns(internet), PORTS, retry=retry
        ).scan(internet.populated_addresses())
        assert len(result.open_ports) == 3  # open circuits hide nothing
        assert clock.now == 0.0
        assert retry._rng.getstate() == rng_before
        assert breaker.snapshot_state() == breaker_before
        assert retry.stats == RetryStats()

    def test_resends_are_tallied_per_batch_and_only_under_retry(self):
        internet = world()
        frame = internet.populated_addresses()
        counts = {}
        for name, retry in (("plain", None), ("retry", executor())):
            telemetry = Telemetry()
            transport = DropsFirstSyns(internet)
            batches = list(Masscan(
                transport, PORTS, retry=retry, telemetry=telemetry
            ).scan_in_batches(frame, batch_size=2))
            assert len(batches) == 2
            metrics = telemetry.metrics
            series = {
                name for name, _labels, _value
                in metrics.snapshot_state()["counters"]
            }
            counts[name] = (
                "masscan_resends_total" in series,
                metrics.counter_value("masscan_resends_total"),
                metrics.counter_value("masscan_probes_total"),
                transport.stats.syn_probes,
            )
        assert counts["plain"] == (False, 0, 9, 9)
        # every port's first SYN is lost: the open one takes two, each
        # closed one all three
        has_series, resends, probes, syns = counts["retry"]
        assert has_series and resends == 3 * (1 + 2 * 2)
        assert probes + resends == syns


class TestOpenCircuitsDoNotBlindStageI:
    def test_a_host_in_a_slash24_whose_circuit_opened_is_still_found(self):
        """Stage II/III of the first four batches open the /24's circuit:
        its first sixteen hosts listen on every scanned port and speak no
        HTTP, so each of their fetches fails (five failures a host before
        the host circuit opens, 80 in the block against a threshold of
        64).  The block's last host, alone in the fifth batch, still
        answers its SYNs and is found; only its HTTP requests meet the
        open circuit."""
        internet = SimulatedInternet()
        for offset in range(1, 17):
            host = Host(IPv4Address.parse(f"93.184.120.{offset}"))
            for port in scanned_ports():
                host.add_service(Service(port, non_http=True))
            internet.add_host(host)
        target = app_host("93.184.120.200")
        internet.add_host(target)
        clock = SimClock()
        pipeline = ScanPipeline(
            InMemoryTransport(internet), scanned_ports(), seed=7,
            batch_size=4, fingerprint=False, retry_policy=POLICY, clock=clock,
        )
        report = pipeline.run(internet.populated_addresses())
        metrics = pipeline.telemetry.metrics
        assert metrics.counter_value("circuit_opened_total", scope="slash24") >= 1
        assert report.port_scan.ports_of(target.ip) == (8888,)
        assert report.retry_stats.breaker_skips >= 1


def stage_i_open_ports(hosts, plan, batch_size, retry):
    internet = SimulatedInternet()
    for block, offset, (slug, port) in hosts:
        internet.add_host(app_host(f"93.184.{100 + block}.{offset}", slug, port))
    clock = SimClock()
    pipeline = ScanPipeline(
        ChaosTransport(InMemoryTransport(internet), plan, seed=3, clock=clock),
        scanned_ports(), seed=7, batch_size=batch_size, fingerprint=False,
        retry_policy=POLICY if retry else None, clock=clock,
    )
    return pipeline.run(internet.populated_addresses()).port_scan.open_ports


_hosts = st.lists(
    st.tuples(st.integers(0, 1), st.integers(1, 254), st.sampled_from(APPS)),
    min_size=1, max_size=24, unique_by=lambda host: host[:2],
)
#: the fault families an exchange can meet.  SYNs are never lost; the
#: time-keyed flap/outage faults stay off, since they read the clock that
#: stage II/III's retries legitimately move; and so does poison, which
#: only an executor turns into a failed request (it would crash the
#: sweep without retry)
_http_plans = st.builds(
    FaultPlan,
    request_loss=st.sampled_from([0.0, 0.2, 0.6]),
    reset_rate=st.sampled_from([0.0, 0.2]),
    slow_rate=st.sampled_from([0.0, 0.3]),
    hang_rate=st.sampled_from([0.0, 0.2]),
    stall_rate=st.sampled_from([0.0, 0.1]),
    truncate_rate=st.sampled_from([0.0, 0.1]),
)


@settings(max_examples=40, deadline=None)
@given(_hosts, _http_plans, st.integers(1, 30))
def test_without_syn_loss_retry_finds_what_a_single_send_finds(
    hosts, plan, batch_size
):
    assert stage_i_open_ports(hosts, plan, batch_size, retry=True) == (
        stage_i_open_ports(hosts, plan, batch_size, retry=False)
    )

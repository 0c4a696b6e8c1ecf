"""Dead filler contributes counts and nothing else.

Stage I sends nothing to, sleeps on nothing for and charges no fault to
an address the liveness hint says is dead — its packets are counted, and
that is all.  So a sweep of whole /24s and a sweep of exactly the
addresses in them that may answer are the same sweep: same findings,
same retry stats to the last backoff second, same faults, same clock,
same events and spans, under chaos, retry and supervision.  They differ
in how many addresses and SYNs they *count*.

One batch per sweep, deliberately.  Batches are cut by address count, so
with dead filler between them two hosts fall into different batches than
without, and stages II/III of one batch then interleave differently with
stage I of the next (the retry and fault streams are shared).  Making a
/24's contribution independent of what was probed before it is the
remaining half of ROADMAP's block-purity item, not this property.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.base import AppInstance
from repro.apps.catalog import create_instance, scanned_ports
from repro.core.pipeline import ScanPipeline
from repro.core.retry import RetryPolicy
from repro.core.serialize import report_to_dict
from repro.core.supervisor import SupervisorConfig
from repro.net.chaos import ChaosTransport, FaultPlan
from repro.net.host import Host, Service
from repro.net.intervals import BLOCK_SIZE, IntervalSet
from repro.net.ipv4 import IPv4Address
from repro.net.network import SimulatedInternet
from repro.net.transport import InMemoryTransport
from repro.util.clock import SimClock
from tests.core.test_parallel import APPS, whole_blocks

POLICY = RetryPolicy(max_attempts=3, base_delay=0.5, max_delay=4.0)
#: one heartbeat per shard whatever the address count, so both sweeps emit it
SUPERVISOR = SupervisorConfig(heartbeat_every=1, quarantine_threshold=1)

#: events and spans that carry an address count
_COUNTING_EVENTS = {"batch-complete", "sweep-complete", "shard-complete", "heartbeat"}
_COUNTING_SPANS = {"stage:masscan", "batch", "sweep"}
#: the series that count addresses: masscan's own and its funnel row, as
#: the Prometheus export spells them
_COUNTING_SERIES = (
    "masscan_addresses_total", "masscan_probes_total",
    'funnel_hosts_total{flow="in",stage="masscan"}',
    'funnel_hosts_total{flow="dropped",stage="masscan"}',
)

_hosts = st.lists(
    st.tuples(
        st.integers(0, 2), st.integers(0, BLOCK_SIZE - 1), st.sampled_from(APPS)
    ),
    min_size=1, max_size=8, unique_by=lambda host: host[:2],
)
_plans = st.builds(
    FaultPlan,
    syn_loss=st.sampled_from([0.0, 0.05, 0.3]),
    request_loss=st.sampled_from([0.0, 0.1]),
    slow_rate=st.sampled_from([0.0, 0.2]),
    flap_rate=st.sampled_from([0.0, 0.4]),
    outage_rate=st.sampled_from([0.0, 0.5]),
)


def build(hosts):
    internet = SimulatedInternet()
    for block, offset, (slug, port) in hosts:
        host = Host(IPv4Address.parse(f"93.184.{100 + block}.{offset}"))
        host.add_service(Service(port, app=AppInstance(create_instance(slug), port)))
        internet.add_host(host)
    return internet


def sweep(hosts, plan, chaos_seed, supervised, only_live):
    """One single-batch sweep of the hosts' /24s, whole or live-only."""
    internet = build(hosts)
    backend = InMemoryTransport(internet)
    frame = whole_blocks(internet.populated_addresses())
    if only_live:
        frame = IntervalSet(
            (value, value)
            for run in frame.runs for value in backend.live_values_in(*run)
        )
    clock = SimClock()
    transport = ChaosTransport(backend, plan, seed=chaos_seed, clock=clock)
    pipeline = ScanPipeline(
        transport, scanned_ports(), seed=7, batch_size=4 * BLOCK_SIZE,
        fingerprint=False, retry_policy=POLICY, clock=clock, shard_blocks=2,
        supervisor=SUPERVISOR if supervised else None,
    )
    report = pipeline.run(frame)
    return frame, report, pipeline


def everything_but_the_counts(report, pipeline):
    """Every artifact of a sweep with the address counts cut out."""
    body = report_to_dict(report)
    for name in ("probes_sent", "addresses_scanned"):
        del body[name]
    for name in ("entered", "dropped"):
        del body["coverage"]["stages"]["masscan"][name]
    lines = []
    for line in pipeline.telemetry.export_jsonl().splitlines():
        record = json.loads(line)
        if record["kind"] == "event" and record["event"] in _COUNTING_EVENTS:
            record["fields"].pop("addresses", None)
            record["fields"].pop("planned", None)
        elif record["kind"] == "span" and record["name"] in _COUNTING_SPANS:
            record["attrs"].pop("addresses", None)
        lines.append(record)
    transport = pipeline.transport
    return {
        "report": body,
        "jsonl": lines,
        "prometheus": [
            line for line in pipeline.telemetry.export_prometheus().splitlines()
            if not line.startswith(_COUNTING_SERIES)
        ],
        "clock": pipeline.clock.now,
        "faults": dict(transport.faults),
        "latency": (transport.slow_seconds, transport.hang_seconds),
        "http_requests": transport.stats.http_requests,
        "requests_per_slash24": dict(transport.stats.requests_per_slash24),
    }


class TestDeadFillerContributesCountsOnly:
    @settings(max_examples=40, deadline=None)
    @given(_hosts, _plans, st.integers(0, 2**16), st.booleans())
    def test_whole_blocks_and_their_live_addresses_are_one_sweep(
        self, hosts, plan, chaos_seed, supervised
    ):
        whole, report, pipeline = sweep(hosts, plan, chaos_seed, supervised, False)
        live, live_report, live_pipeline = sweep(
            hosts, plan, chaos_seed, supervised, True
        )
        assert len(live) == len(hosts)
        assert report.retry_stats == live_report.retry_stats
        assert everything_but_the_counts(report, pipeline) == (
            everything_but_the_counts(live_report, live_pipeline)
        )
        # ... and the counts differ by exactly the dead filler's packets.
        dead = len(whole) - len(live)
        ports = len(scanned_ports())
        scan, live_scan = report.port_scan, live_report.port_scan
        assert scan.addresses_scanned - live_scan.addresses_scanned == dead
        assert scan.probes_sent - live_scan.probes_sent == dead * ports
        assert (
            pipeline.transport.stats.syn_probes
            - live_pipeline.transport.stats.syn_probes
        ) == dead * ports * POLICY.max_attempts

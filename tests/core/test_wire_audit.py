"""What a clean sweep puts on the wire, audited from outside the program.

A pass-through transport layer records every address the sweep asks and
every request it sends, and the audit checks three properties of that
record: every request is a GET; no address outside the frame, and none
in the IANA reserved space, is asked; and no GET — ``(ip, port, scheme,
path, follow_redirects)`` — is sent twice, because a target's answers are
remembered for the stages that share them.  The sweep plants a live,
vulnerable host in reserved space inside the frame and one just outside
it, so the address half has something to refuse.
"""

from collections import Counter

import pytest

from repro.apps.base import AppInstance
from repro.apps.catalog import create_instance, scanned_ports
from repro.core.pipeline import ScanPipeline
from repro.core.tsunami.engine import TsunamiEngine
from repro.core.tsunami.plugins import plugin_for
from repro.net.host import Host, Service
from repro.net.http import Scheme
from repro.net.intervals import CompressedPopulation
from repro.net.ipv4 import IPv4Address, is_reserved
from repro.net.population import PopulationModel, generate_internet
from repro.net.transport import InMemoryTransport, Transport

SEED = 20210603
#: a live, vulnerable host in private (reserved) space, framed
RESERVED = IPv4Address.parse("10.9.8.7")
#: a live, vulnerable host in routable space, not framed
UNFRAMED = IPv4Address.parse("93.184.216.34")


class WireAudit(Transport):
    """Passes everything to ``inner``; records what reaches the wire."""

    def __init__(self, inner: Transport) -> None:
        super().__init__(enforce_ethics=inner.enforce_ethics)
        self.inner = inner
        self.stats = inner.stats
        self.asked: set[IPv4Address] = set()
        self.methods: Counter = Counter()
        self.gets: Counter = Counter()

    def _port_open(self, ip, port):
        return self.inner._port_open(ip, port)

    def _exchange(self, ip, port, scheme, request):
        return self.inner._exchange(ip, port, scheme, request)

    def syn_probe(self, ip, port):
        self.asked.add(ip)
        return self.inner.syn_probe(ip, port)

    def probe_ports(self, values, ports):
        self.asked.update(map(IPv4Address, values))
        return self.inner.probe_ports(values, ports)

    def fetch_certificate(self, ip, port):
        self.asked.add(ip)
        return self.inner.fetch_certificate(ip, port)

    def request(self, ip, port, scheme, request):
        self.asked.add(ip)
        self.methods[request.method] += 1
        return self.inner.request(ip, port, scheme, request)

    def get(self, ip, port, path, scheme=Scheme.HTTP, follow_redirects=5):
        self.gets[ip, port, scheme, path, follow_redirects] += 1
        # the base class follows redirects through this layer's request
        return Transport.get(self, ip, port, path, scheme, follow_redirects)


def violations(audit: WireAudit, frame) -> list[str]:
    found = [f"{method} sent" for method in audit.methods if method != "GET"]
    found += [
        f"{ip} asked" for ip in sorted(audit.asked, key=lambda ip: ip.value)
        if is_reserved(ip) or ip not in frame
    ]
    found += [f"{key} sent {n} times" for key, n in audit.gets.items() if n > 1]
    return found


def vulnerable_host(ip: IPv4Address) -> Host:
    host = Host(ip)
    host.add_service(
        Service(80, app=AppInstance(create_instance("polynote"), 80))
    )
    return host


@pytest.fixture(scope="module")
def world():
    """The cost ledger's dense world, framed as every populated /24 (the
    planted reserved host's among them), plus the unframed host."""
    internet, _, _ = generate_internet(PopulationModel(
        awe_rate=0.0002, vuln_rate=0.005, background_rate=2e-8, seed=SEED,
    ))
    internet.add_host(vulnerable_host(RESERVED))
    frame = CompressedPopulation.build(internet, 0, seed=SEED).frame
    internet.add_host(vulnerable_host(UNFRAMED))
    assert RESERVED in frame and UNFRAMED not in frame
    return internet, frame


def test_a_clean_sweep_sends_each_get_once_and_only_where_it_may(world):
    internet, frame = world
    audit = WireAudit(InMemoryTransport(internet))
    report = ScanPipeline(audit, scanned_ports(), seed=7).run(frame)
    assert report.detections  # the sweep found something to verify
    assert audit.methods["GET"] == audit.inner.stats.http_requests > 1000
    assert violations(audit, frame) == []


class ReAsking:
    """A check with a bug: it asks ``/`` again around the context's memo."""

    slug = "re-asking"
    title = "A check that re-asks"

    def detect(self, context):
        context.fetch("/")
        context.transport.get(context.ip, context.port, "/", context.scheme)
        return None


def test_the_audit_sees_a_path_asked_twice(world):
    internet, frame = world
    ip = next(
        ip for ip in internet.populated_addresses()
        if ip in frame and internet.is_port_open(ip, 80)
    )
    audit = WireAudit(InMemoryTransport(internet))
    TsunamiEngine(audit, plugins=(ReAsking(), plugin_for("polynote"))).scan_target(
        ip, 80, Scheme.HTTP, ("re-asking", "polynote")
    )
    assert violations(audit, frame) == [f"{(ip, 80, Scheme.HTTP, '/', 5)} sent 2 times"]

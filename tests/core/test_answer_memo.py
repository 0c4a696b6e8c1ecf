"""A target is asked each question once: the per-target answer memo.

A :class:`PluginContext` remembers every HTTP answer by ``(path,
follow_redirects)``, whatever its status, and never a transport failure.
The pipeline seeds one memo per stage-II finding with the landing page and
hands it to every plugin, the disclosure extractors and the crawler.
"""

import pytest

from repro.apps.base import AppInstance
from repro.apps.catalog import create_instance, scanned_ports
from repro.core.pipeline import ScanPipeline
from repro.core.tsunami.plugin import PluginContext
from repro.net.host import Host, Service
from repro.net.http import HttpRequest, HttpResponse, Scheme
from repro.net.ipv4 import IPv4Address
from repro.net.network import SimulatedInternet
from repro.net.transport import InMemoryTransport
from repro.obs.telemetry import Telemetry
from repro.util.errors import ConnectionTimeout

IP = IPv4Address.parse("93.184.216.34")


def _answer(request):
    if request.path == "/moved":
        return HttpResponse.redirect("/api")
    if request.path == "/api":
        return HttpResponse.json('{"version": "1.0"}')
    return HttpResponse.not_found()


class Wire(InMemoryTransport):
    """Records the path of every GET asked and of every request that
    reaches the wire (a GET that follows a redirect sends two), and fails
    the first ``failures`` requests with a timeout."""

    def __init__(self, internet, failures=0):
        super().__init__(internet)
        self.failures = failures
        self.gets = []
        self.paths = []

    def get(self, ip, port, path, scheme=Scheme.HTTP, follow_redirects=5):
        self.gets.append(path)
        return super().get(ip, port, path, scheme, follow_redirects)

    def _exchange(self, ip, port, scheme, request):
        self.paths.append(request.path)
        if self.failures:
            self.failures -= 1
            raise ConnectionTimeout("scripted timeout")
        return super()._exchange(ip, port, scheme, request)


def _context(failures=0, telemetry=None):
    internet = SimulatedInternet()
    host = Host(IP)
    host.add_service(Service(80, responder=_answer))
    internet.add_host(host)
    return PluginContext(
        Wire(internet, failures), IP, 80, Scheme.HTTP, telemetry=telemetry
    )


class TestTheMemoContract:
    def test_fetch_then_fetch_json_on_one_path_sends_one_request(self):
        context = _context()
        assert context.fetch("/api").status == 200
        assert context.fetch_json("/api") == {"version": "1.0"}
        assert context.transport.paths == ["/api"]
        assert context.transport.stats.http_requests == 1

    def test_every_status_is_remembered(self):
        context = _context()
        assert context.fetch("/missing").status == 404
        assert context.fetch_json("/missing") is None
        assert context.transport.paths == ["/missing"]

    def test_a_transport_error_is_not_remembered(self):
        context = _context(failures=1)
        assert context.fetch("/api") is None
        assert context.memo == {}
        assert context.fetch("/api").status == 200
        assert context.transport.paths == ["/api", "/api"]
        assert context.fetch("/api").status == 200
        assert context.transport.paths == ["/api", "/api"]

    def test_follow_redirects_is_part_of_the_key(self):
        context = _context()
        assert context.fetch("/moved", follow_redirects=0).status == 302
        assert context.fetch("/moved").status == 200
        assert context.transport.paths == ["/moved", "/moved", "/api"]
        assert set(context.memo) == {("/moved", 0), ("/moved", 5)}
        context.fetch("/moved", follow_redirects=0)
        context.fetch("/moved")
        assert len(context.transport.paths) == 3

    def test_a_hit_leaves_the_exchange_the_wire_answer_left(self):
        telemetry = Telemetry()
        context = _context(failures=1, telemetry=telemetry)
        window = telemetry.probe_start()
        context.fetch("/api")  # the scripted timeout
        context.fetch("/api")  # the wire
        context.fetch("/api")  # the memo
        telemetry.probe_end(window, "probe:memo", IP, 80, {})
        (record,) = telemetry.flight.records
        timeout, wire, hit = record["exchanges"]
        assert timeout == {"path": "/api", "error": "ConnectionTimeout"}
        assert hit == wire == {"path": "/api", "status": 200, "body_bytes": 18}


class TestGetRequests:
    def test_one_request_per_path_and_scheme(self):
        assert HttpRequest.get("/a") is HttpRequest.get("/a", Scheme.HTTP)
        assert HttpRequest.get("/a", Scheme.HTTPS) is not HttpRequest.get("/a")
        assert HttpRequest.get("/a").scheme is Scheme.HTTP

    def test_the_path_is_split_once(self):
        request = HttpRequest.get("/wp-admin/install.php?step=1")
        assert request.path_only == "/wp-admin/install.php"
        assert "path_only" in vars(request)
        assert request.query == {"step": "1"}


@pytest.mark.parametrize("vulnerable", [True, False])
def test_a_disclosing_wordpress_costs_two_gets(vulnerable):
    """The landing page stage II fetched serves the fingerprinter, which
    reads the disclosed version from it; the one question left is the
    WordPress plugin's.  An uninstalled WordPress redirects its landing
    page to the installer, so that one GET sends two requests."""
    internet = SimulatedInternet()
    host = Host(IP)
    app = create_instance("wordpress", vulnerable=vulnerable)
    host.add_service(Service(80, app=AppInstance(app, 80)))
    internet.add_host(host)
    transport = Wire(internet)
    report = ScanPipeline(transport, scanned_ports(), seed=7).run([IP])
    (observation,) = report.observations()
    assert observation.vulnerable is vulnerable
    assert observation.fingerprint.version == app.version
    assert observation.fingerprint.method.value == "disclosure"
    assert transport.gets == ["/", "/wp-admin/install.php?step=1"]
    landing = ["/", "/wp-admin/install.php"] if vulnerable else ["/"]
    assert transport.paths == [*landing, "/wp-admin/install.php?step=1"]

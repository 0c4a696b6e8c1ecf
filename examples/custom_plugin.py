#!/usr/bin/env python3
"""Extend the scanner: add a Tsunami check for your own application.

Tsunami's point (and this reproduction's) is the extensible plugin
system: every MAV check is a small, self-contained plugin — here, one
row of the detection table.  This example defines a brand-new emulated
application ("MlFlowBoard", an experiment tracker with no
authentication), adds one row that checks it, and runs the engine with
the extended table over a mixed population.

Run:  python examples/custom_plugin.py
"""

from repro.apps.base import AppCategory, VulnKind, WebApplication, html_page, route
from repro.apps.catalog import create_instance
from repro.apps.base import AppInstance
from repro.core.tsunami.engine import TsunamiEngine
from repro.core.tsunami.plugin import Detection, Json
from repro.core.tsunami.plugins import ALL_PLUGINS
from repro.net.host import Host, Service
from repro.net.http import HttpRequest, HttpResponse, Scheme
from repro.net.ipv4 import IPv4Address
from repro.net.network import SimulatedInternet
from repro.net.transport import InMemoryTransport


class MlFlowBoard(WebApplication):
    """A (fictional) experiment tracker that can run training jobs."""

    name = "MlFlowBoard"
    slug = "mlflowboard"
    category = AppCategory.NB
    vuln_kind = VulnKind.API
    default_ports = (5000,)

    def validate_config(self) -> None:
        self.config.setdefault("auth_enabled", False)  # insecure by default!

    def is_vulnerable(self) -> bool:
        return not self.cfg("auth_enabled")

    def secure(self) -> None:
        self.config["auth_enabled"] = True

    @route("GET", "/")
    def index(self, request: HttpRequest) -> HttpResponse:
        return HttpResponse.html(html_page("MlFlowBoard", "<div>Experiments</div>"))

    @route("GET", "/api/2.0/jobs/list")
    def list_jobs(self, request: HttpRequest) -> HttpResponse:
        if not self.is_vulnerable():
            return HttpResponse.unauthorized("MlFlowBoard")
        return HttpResponse.json('{"jobs": [{"id": 1, "cmd": "train.py"}]}')


#: Detection: the job-list API answers without credentials.
MLFLOWBOARD = Detection(
    "mlflowboard", "MlFlowBoard job API exposed without authentication",
    ((Json("/api/2.0/jobs/list", key=("jobs",), shape=list),),),
    "{count} jobs listable anonymously",
)


def main() -> None:
    internet = SimulatedInternet()

    def add(ip: str, app, port: int) -> IPv4Address:
        address = IPv4Address.parse(ip)
        host = Host(address)
        host.add_service(Service(port, app=AppInstance(app, port)))
        internet.add_host(host)
        return address

    targets = [
        (add("100.1.0.1", MlFlowBoard("1.0"), 5000), 5000, ("mlflowboard",)),
        (add("100.1.0.2", MlFlowBoard("1.0", {"auth_enabled": True}), 5000),
         5000, ("mlflowboard",)),
        (add("100.1.0.3", create_instance("zeppelin", vulnerable=True), 8080),
         8080, ("zeppelin",)),
    ]

    engine = TsunamiEngine(
        InMemoryTransport(internet),
        plugins=ALL_PLUGINS + (MLFLOWBOARD,),
    )
    print(f"engine loaded {len(engine.plugins)} plugins "
          "(18 built-in + 1 custom)\n")
    for ip, port, candidates in targets:
        reports = engine.scan_target(ip, port, Scheme.HTTP, candidates)
        verdict = reports[0].title if reports else "no MAV detected"
        print(f"{ip}:{port}  ->  {verdict}")


if __name__ == "__main__":
    main()

"""Simulated hosts and the services they expose.

A :class:`Host` owns a set of :class:`Service` objects keyed by port.  A
service either wraps an application emulator (an AWE, or an out-of-scope
product) or a generic responder (default web-server pages, API gateways —
the background noise a real scan wades through).

Hosts model the network quirks the paper had to handle:

* ports that are open but speak neither HTTP nor HTTPS;
* HTTPS-only services that answer HTTP with a redirect to HTTPS;
* "all ports open" middleboxes that accept every TCP connection but never
  return an application response (3.0M such hosts in the paper, excluded
  from its Table 2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

from typing import TYPE_CHECKING

from repro.net.http import HttpRequest, HttpResponse, Scheme

if TYPE_CHECKING:  # avoid a circular import with repro.apps at runtime
    from repro.apps.base import AppInstance, WebApplication
from repro.net.ipv4 import IPv4Address
from repro.util.errors import ConnectionRefused, ConnectionTimeout, TlsError


class HostKind(enum.Enum):
    """Why this host exists in the population."""

    AWE = "awe"                  # runs one of the 25 investigated apps
    BACKGROUND = "background"    # generic web server / other service
    MIDDLEBOX = "middlebox"      # accepts all ports, answers nothing


GenericResponder = Callable[[HttpRequest], HttpResponse]


@dataclass
class Service:
    """One listening port on a host."""

    port: int
    schemes: frozenset[Scheme] = frozenset({Scheme.HTTP})
    app: AppInstance | None = None
    responder: GenericResponder | None = None
    #: open TCP port that speaks no HTTP at all (SSH, SMTP, custom TCP...)
    non_http: bool = False
    #: certificate presented when the service speaks HTTPS
    certificate: object | None = None  # repro.net.tls.Certificate
    #: name-based virtual hosts: Host header -> application.  Requests
    #: without a matching Host header reach the default `app`/`responder`
    #: (why IP-only scans under-count, paper §6.2).
    vhosts: dict[str, "AppInstance"] | None = None

    def speaks(self, scheme: Scheme) -> bool:
        return not self.non_http and scheme in self.schemes

    def handle(self, scheme: Scheme, request: HttpRequest) -> HttpResponse:
        if self.non_http:
            raise ConnectionTimeout(f"port {self.port} does not speak HTTP")
        if scheme not in self.schemes:
            if scheme is Scheme.HTTP and Scheme.HTTPS in self.schemes:
                # Common pattern: HTTP answers only to say "use HTTPS".
                return HttpResponse.redirect(f"https://{{host}}:{self.port}/", 301)
            raise TlsError(f"port {self.port} does not speak {scheme}")
        if self.vhosts:
            named = self.vhosts.get(request.headers.get("host", ""))
            if named is not None:
                return named.handle(request)
        if self.app is not None:
            return self.app.handle(request)
        if self.responder is not None:
            return self.responder(request)
        return HttpResponse.not_found()


@dataclass
class Host:
    """A simulated Internet host."""

    ip: IPv4Address
    kind: HostKind = HostKind.BACKGROUND
    services: dict[int, Service] = field(default_factory=dict)
    online: bool = True

    def add_service(self, service: Service) -> None:
        if service.port in self.services:
            raise ValueError(f"{self.ip} already listens on {service.port}")
        self.services[service.port] = service

    def is_port_open(self, port: int) -> bool:
        if not self.online:
            return False
        if self.kind is HostKind.MIDDLEBOX:
            return True
        return port in self.services

    def certificate_on(self, port: int):
        """The certificate a TLS handshake on ``port`` would present."""
        if not self.online or self.kind is HostKind.MIDDLEBOX:
            return None
        service = self.services.get(port)
        if service is None or Scheme.HTTPS not in service.schemes:
            return None
        return service.certificate

    def exchange(self, port: int, scheme: Scheme, request: HttpRequest) -> HttpResponse:
        if not self.online:
            raise ConnectionTimeout(f"{self.ip} is offline")
        if self.kind is HostKind.MIDDLEBOX:
            # Accepts the TCP handshake but never produces bytes.
            raise ConnectionTimeout(f"{self.ip}:{port} accepted but stayed silent")
        service = self.services.get(port)
        if service is None:
            raise ConnectionRefused(f"{self.ip}:{port} is closed")
        return service.handle(scheme, request)

    # -- convenience accessors used by the experiments ------------------------

    def apps(self) -> list[AppInstance]:
        """Application instances exposed by this host (deduplicated).

        The paper counts an application once per host even if it listens on
        multiple ports, so callers rely on the dedup here.
        """
        seen: set[int] = set()
        out: list["AppInstance"] = []
        for service in self.services.values():
            candidates = list(service.vhosts.values()) if service.vhosts else []
            if service.app is not None:
                candidates.insert(0, service.app)
            for instance in candidates:
                if id(instance.app) not in seen:
                    seen.add(id(instance.app))
                    out.append(instance)
        return out

    def app_instance(self, slug: str) -> WebApplication | None:
        for instance in self.apps():
            if instance.slug == slug:
                return instance.app
        return None

    def has_vulnerable_app(self) -> bool:
        return any(inst.app.is_vulnerable() for inst in self.apps())

    def take_offline(self) -> None:
        self.online = False

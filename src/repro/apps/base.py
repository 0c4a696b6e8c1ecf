"""Framework shared by all application emulators.

An emulator is a :class:`WebApplication` subclass.  It declares routes with
the :func:`route` decorator, carries an installed version and a
configuration mapping, and answers :class:`~repro.net.http.HttpRequest`
values exactly like the real software would for the endpoints the study
exercises.

Two consumers drive emulators:

* the scanning pipeline sends non-state-changing GET requests and inspects
  bodies (prevalence study, §3);
* the honeypot fleet forwards full attacker traffic, including POSTs that
  execute commands; emulators record those as :class:`CommandExecution`
  audit events (attacker study, §4).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cache
from typing import Callable, ClassVar, Iterable, Mapping

from repro.net.http import HttpRequest, HttpResponse
from repro.util.errors import ConfigError
from repro.util.rand import stable_hash


class AppCategory(enum.Enum):
    """The paper's five application categories."""

    CI = "Continuous Integration"
    CMS = "Content Management System"
    CM = "Cluster Management"
    NB = "Notebook"
    CP = "Control Panel"

    @property
    def short(self) -> str:
        return self.name


class VulnKind(enum.Enum):
    """Attack vector exposed by the missing authentication (Table 1)."""

    SYSCMD = "Syscmd"    # direct system command execution
    API = "API"          # critical HTTP API wrapping system commands
    SQL = "SQL"          # SQL console access
    INSTALL = "Install"  # hijackable installation wizard
    NONE = "-"           # not in scope


@dataclass(frozen=True)
class CommandExecution:
    """An audit record: code ran on the host through the web endpoint.

    This is what Auditbeat would report as an ``execve`` on the real
    honeypots; the emulators synthesise it instead of actually executing
    anything.
    """

    command: str
    via: str                    # the endpoint that triggered it, e.g. "/api/terminals"
    mechanism: str              # e.g. "terminal", "build-step", "container"

    @property
    def payload_fingerprint(self) -> int:
        """Stable fingerprint used to group repeated payloads."""
        return stable_hash("payload", self.command)


RouteHandler = Callable[["WebApplication", HttpRequest], HttpResponse]


def route(method: str, path: str) -> Callable[[RouteHandler], RouteHandler]:
    """Declare a handler for ``method path`` on a WebApplication subclass.

    ``path`` matches the request's path with the query string stripped.
    A trailing ``*`` makes it a prefix match.
    """

    def decorator(handler: RouteHandler) -> RouteHandler:
        handler._route = (method.upper(), path)  # type: ignore[attr-defined]
        return handler

    return decorator


class WebApplication:
    """Base class for the 25 emulators.

    Subclasses set the class attributes and implement routes.  Instances
    are cheap: the population generator creates hundreds of thousands.
    """

    # -- identity (overridden per subclass) -------------------------------
    name: ClassVar[str] = "abstract"
    slug: ClassVar[str] = "abstract"
    category: ClassVar[AppCategory] = AppCategory.CP
    vuln_kind: ClassVar[VulnKind] = VulnKind.NONE
    default_ports: ClassVar[tuple[int, ...]] = (80,)
    #: does the application disclose its version voluntarily (13 of 18 do)?
    discloses_version: ClassVar[bool] = False

    def __init__(self, version: str, config: Mapping[str, object] | None = None) -> None:
        self.version = version
        self.config: dict[str, object] = dict(config or {})
        self.executions: list[CommandExecution] = []
        self._routes = self._collect_routes()
        self.validate_config()

    # -- configuration -----------------------------------------------------

    def validate_config(self) -> None:
        """Subclasses may reject inconsistent configurations."""

    def cfg(self, key: str, default: object = None) -> object:
        return self.config.get(key, default)

    # -- security ground truth ----------------------------------------------

    def is_vulnerable(self) -> bool:
        """Ground truth: does this instance expose a MAV right now?

        This is what the simulator knows; the scanning pipeline must
        *infer* it from HTTP responses alone, which is exactly the
        methodology the paper evaluates.
        """
        raise NotImplementedError

    def secure(self) -> None:
        """Reconfigure the instance so it no longer exposes the MAV.

        Used by the lifecycle model when an owner "fixes" a host.
        """
        raise NotImplementedError

    # -- versioned behaviour helpers ----------------------------------------

    def version_tuple(self) -> tuple[int, ...]:
        return parse_version(self.version)

    def version_before(self, threshold: str) -> bool:
        return self.version_tuple() < parse_version(threshold)

    # -- request handling -----------------------------------------------------

    def handle(self, request: HttpRequest) -> HttpResponse:
        """Dispatch a request to the matching route."""
        path = request.path_only
        method = request.method.upper()
        handler = self._routes.get((method, path))
        if handler is None:
            handler = self._prefix_match(method, path)
        if handler is None:
            if method == "GET":
                asset = self.static_files().get(path)
                if asset is not None:
                    content_type = "text/css" if path.endswith(".css") else "application/javascript"
                    return HttpResponse.ok(asset, content_type=content_type)
            return self.default_response(request)
        return handler(self, request)

    def _prefix_match(self, method: str, path: str) -> RouteHandler | None:
        best: RouteHandler | None = None
        best_len = -1
        for (m, pattern), handler in self._routes.items():
            if m != method or not pattern.endswith("*"):
                continue
            prefix = pattern[:-1]
            if path.startswith(prefix) and len(prefix) > best_len:
                best, best_len = handler, len(prefix)
        return best

    def default_response(self, request: HttpRequest) -> HttpResponse:
        """Response for unrouted paths; subclasses may override."""
        return HttpResponse.not_found()

    def canned_paths(self) -> tuple[str, ...]:
        """GET paths whose responses characterise this application.

        This is the ground-truth page corpus the signature auditor and the
        precision-matrix tests probe.  The default is every exact-match GET
        route; subclasses append query-carrying probe paths (Table 10)
        whose bodies differ from the bare route.
        """
        return tuple(
            sorted(
                path
                for (method, path) in self._routes
                if method == "GET" and not path.endswith("*")
            )
        )

    @classmethod
    @cache
    def _collect_routes(cls) -> dict[tuple[str, str], RouteHandler]:
        """Built once per class: its instances share the dict, read-only."""
        routes: dict[tuple[str, str], RouteHandler] = {}
        for klass in reversed(cls.__mro__):
            for attr in vars(klass).values():
                route_key = getattr(attr, "_route", None)
                if route_key is not None:
                    routes[route_key] = attr
        return routes

    # -- honeypot instrumentation ----------------------------------------------

    def record_execution(self, command: str, via: str, mechanism: str) -> CommandExecution:
        """Record that attacker-supplied code ran (simulated, never real)."""
        execution = CommandExecution(command=command, via=via, mechanism=mechanism)
        self.executions.append(execution)
        return execution

    def drain_executions(self) -> list[CommandExecution]:
        """Return and clear recorded executions (monitor poll)."""
        drained, self.executions = self.executions, []
        return drained

    # -- fingerprinting surface ---------------------------------------------------

    def static_files(self) -> dict[str, str]:
        """Static assets (path -> content) referenced from the landing page.

        Contents vary by version, which is what makes hash-based
        fingerprinting possible.  Subclasses extend this.
        """
        return {}

    def landing_page(self) -> str:
        """The body served at '/'; must contain the prefilter markers."""
        return "<html><body>It works!</body></html>"

    # -- niceties -----------------------------------------------------------------

    def __repr__(self) -> str:
        return f"<{type(self).__name__} v{self.version} config={self.config}>"


@dataclass
class AppInstance:
    """An application deployed on a simulated host.

    Binds an emulator to the port and scheme it is served on.
    """

    app: WebApplication
    port: int
    tls: bool = False

    @property
    def slug(self) -> str:
        return self.app.slug

    def handle(self, request: HttpRequest) -> HttpResponse:
        return self.app.handle(request)


def parse_version(text: str) -> tuple[int, ...]:
    """Parse '2.289.1' -> (2, 289, 1); tolerant of suffixes like '4.6.3-rc1'."""
    parts: list[int] = []
    for chunk in text.split("."):
        digits = ""
        for char in chunk:
            if char.isdigit():
                digits += char
            else:
                break
        if not digits:
            break
        parts.append(int(digits))
    if not parts:
        raise ConfigError(f"unparseable version: {text!r}")
    return tuple(parts)


def versioned_asset(slug: str, path: str, version: str) -> str:
    """Deterministic, version-dependent static file content.

    Real fingerprinters hash files like ``wp-includes/js/wp-embed.min.js``
    whose bytes change between releases.  We synthesise stable stand-ins:
    same (app, path, version) -> same content, different version ->
    different content.
    """
    token = stable_hash(slug, path, version)
    return f"/* {slug} asset {path} */ build={token:016x};"


def html_page(title: str, body: str, assets: Iterable[str] = ()) -> str:
    """Small helper to build landing pages with asset references."""
    links = "\n".join(
        f'<script src="{a}"></script>' if a.endswith(".js") else f'<link rel="stylesheet" href="{a}">'
        for a in assets
    )
    return (
        "<!DOCTYPE html>\n"
        f"<html><head><title>{title}</title>\n{links}\n</head>"
        f"<body>{body}</body></html>"
    )

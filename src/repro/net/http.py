"""A compact HTTP/1.1 message model.

The application emulators, the scanning pipeline, and the honeypot monitor
all exchange :class:`HttpRequest`/:class:`HttpResponse` values.  The model
covers what the paper's pipeline needs: methods, paths with query strings,
headers, bodies and redirects.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Mapping
from urllib.parse import parse_qsl, urlsplit


class Scheme(enum.Enum):
    """Application-layer protocol spoken on a port."""

    HTTP = "http"
    HTTPS = "https"

    #: members are singletons compared by identity; so is this C-level hash
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


REASON_PHRASES = {
    200: "OK",
    201: "Created",
    204: "No Content",
    301: "Moved Permanently",
    302: "Found",
    303: "See Other",
    307: "Temporary Redirect",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
}

REDIRECT_CODES = frozenset({301, 302, 303, 307, 308})


def _canonical(headers: Mapping[str, str] | None) -> dict[str, str]:
    """Lower-case header names; HTTP header names are case-insensitive."""
    if not headers:
        return {}
    return {name.lower(): value for name, value in headers.items()}


@dataclass(frozen=True)
class HttpRequest:
    """An HTTP request as seen by a service or honeypot monitor."""

    method: str
    path: str
    headers: Mapping[str, str] = field(default_factory=dict)
    body: str = ""
    scheme: Scheme = Scheme.HTTP

    def __post_init__(self) -> None:
        object.__setattr__(self, "headers", _canonical(self.headers))
        if not self.path.startswith("/"):
            raise ValueError(f"request path must be absolute: {self.path!r}")

    @classmethod
    def get(cls, path: str, scheme: Scheme = Scheme.HTTP) -> "HttpRequest":
        """The GET of ``path``: one shared instance per ``(path, scheme)``,
        built on first use.  Requests are frozen; treat headers as such."""
        return _get_request(path, scheme)

    @classmethod
    def post(
        cls,
        path: str,
        body: str = "",
        scheme: Scheme = Scheme.HTTP,
        headers: Mapping[str, str] | None = None,
    ) -> "HttpRequest":
        return cls("POST", path, headers=headers or {}, body=body, scheme=scheme)

    @cached_property
    def path_only(self) -> str:
        """The path with any query string removed (parsed once)."""
        return urlsplit(self.path).path

    @property
    def query(self) -> dict[str, str]:
        """Query-string parameters (last value wins on duplicates)."""
        return dict(parse_qsl(urlsplit(self.path).query, keep_blank_values=True))

    @property
    def form(self) -> dict[str, str]:
        """Body parsed as a urlencoded form."""
        return dict(parse_qsl(self.body, keep_blank_values=True))

    @cached_property
    def is_state_changing(self) -> bool:
        """True for methods an ethical scanner must not send."""
        return self.method.upper() not in ("GET", "HEAD", "OPTIONS")


@lru_cache(maxsize=4096)
def _get_request(path: str, scheme: Scheme) -> HttpRequest:
    return HttpRequest("GET", path, scheme=scheme)


class HttpResponse(tuple):
    """An HTTP response as produced by a service: an immutable ``(status,
    headers, body)`` tuple, equal only to another response.  The constructor
    lower-cases header names; the factories' literal names already are."""

    __slots__ = ()

    def __new__(
        cls, status: int, headers: Mapping[str, str] | None = None, body: str = ""
    ) -> "HttpResponse":
        return tuple.__new__(cls, (status, _canonical(headers), body))

    status = property(itemgetter(0))
    headers = property(itemgetter(1))
    body = property(itemgetter(2))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __eq__(self, other: object) -> bool:
        return type(other) is HttpResponse and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"HttpResponse(status={self[0]!r}, headers={self[1]!r}, body={self[2]!r})"

    @classmethod
    def ok(cls, body: str, content_type: str = "text/html") -> "HttpResponse":
        return tuple.__new__(cls, (200, {"content-type": content_type}, body))

    @classmethod
    def html(cls, body: str, status: int = 200) -> "HttpResponse":
        return tuple.__new__(cls, (status, {"content-type": "text/html"}, body))

    @classmethod
    def json(cls, body: str, status: int = 200) -> "HttpResponse":
        return tuple.__new__(cls, (status, {"content-type": "application/json"}, body))

    @classmethod
    def redirect(cls, location: str, status: int = 302) -> "HttpResponse":
        if status not in REDIRECT_CODES:
            raise ValueError(f"{status} is not a redirect status")
        return tuple.__new__(cls, (status, {"location": location}, ""))

    @classmethod
    def not_found(cls, body: str = "404 Not Found") -> "HttpResponse":
        return tuple.__new__(cls, (404, {"content-type": "text/html"}, body))

    @classmethod
    def unauthorized(cls, realm: str = "restricted") -> "HttpResponse":
        return tuple.__new__(cls, (
            401,
            {"www-authenticate": f'Basic realm="{realm}"', "content-type": "text/html"},
            "<html><body>401 Authorization Required</body></html>",
        ))

    @classmethod
    def forbidden(cls, body: str = "403 Forbidden") -> "HttpResponse":
        return tuple.__new__(cls, (403, {"content-type": "text/html"}, body))

    @property
    def reason(self) -> str:
        return REASON_PHRASES.get(self[0], "Unknown")

    @property
    def is_redirect(self) -> bool:
        return self.status in REDIRECT_CODES and "location" in self.headers

    @property
    def location(self) -> str | None:
        return self.headers.get("location")

    @property
    def content_type(self) -> str:
        return self.headers.get("content-type", "")

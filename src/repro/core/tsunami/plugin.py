"""Plugin API of the Tsunami-style scanner.

Each MAV check is a :class:`Detection`: one row of the paper's Table 10,
a handful of non-state-changing GET steps (:class:`Get`, :class:`Json`)
that :meth:`Detection.detect` runs over a :class:`PluginContext` — the
transport plus the target coordinates — returning a
:class:`DetectionReport` when, and only when, every step succeeds.  A
context asks its target each question once: answers are remembered per
``(path, follow_redirects)``, whatever their status, so the checks, the
disclosure extractors and the crawler that share one context share its
answers; a transport failure is not remembered, and is asked again.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from string import Formatter

from repro.core.retry import RetryExecutor
from repro.core.tsunami.htmlcheck import outline
from repro.net.http import HttpResponse, Scheme
from repro.net.ipv4 import IPv4Address
from repro.net.transport import Transport
from repro.util.errors import TransportError


@dataclass(frozen=True)
class DetectionReport:
    """A verified missing-authentication vulnerability."""

    ip: IPv4Address
    port: int
    scheme: Scheme
    slug: str
    title: str
    details: str

    def __str__(self) -> str:
        return f"[{self.slug}] {self.ip}:{self.port} — {self.title}"

    def __reduce__(self):
        fields = (self.ip, self.port, self.scheme, self.slug, self.title, self.details)
        return DetectionReport, fields


class PluginContext:
    """Target coordinates plus transport helpers for one plugin run.

    ``retry``, when set, retries transient transport failures with backoff;
    ``telemetry``, when set, notes every exchange on the flight recorder;
    ``memo`` maps ``(path, follow_redirects)`` to the response already
    received (a new dict when not given)."""

    __slots__ = ("transport", "ip", "port", "scheme", "retry", "telemetry", "memo")

    def __init__(
        self, transport: Transport, ip: IPv4Address, port: int, scheme: Scheme,
        retry: RetryExecutor | None = None, telemetry: object | None = None,
        memo: dict[tuple[str, int], HttpResponse] | None = None,
    ) -> None:
        self.transport = transport
        self.ip = ip
        self.port = port
        self.scheme = scheme
        self.retry = retry
        self.telemetry = telemetry
        self.memo = {} if memo is None else memo

    def fetch(self, path: str, follow_redirects: int = 5) -> HttpResponse | None:
        """GET ``path``, or read it from the memo; ``None`` on any
        transport failure.  A memo hit is noted as the wire answer was."""
        key = (path, follow_redirects)
        response = self.memo.get(key)
        if response is None:
            try:
                if self.retry is None:
                    response = self.transport.get(
                        self.ip, self.port, path, self.scheme, follow_redirects
                    )
                else:
                    response = self.retry.call(self.ip, partial(
                        self.transport.get, self.ip, self.port, path,
                        self.scheme, follow_redirects,
                    ))
            except TransportError as exc:
                if self.telemetry is not None:
                    self.telemetry.flight.note_exchange(
                        path, error=type(exc).__name__
                    )
                return None
            self.memo[key] = response
        if self.telemetry is not None:
            self.telemetry.flight.note_exchange(
                path, response.status, len(response.body)
            )
        return response

    def fetch_json(self, path: str) -> object | None:
        """GET ``path`` and parse the body as JSON; ``None`` on failure."""
        response = self.fetch(path)
        if response is None or response.status >= 400:
            return None
        try:
            return json.loads(response.body)
        except json.JSONDecodeError:
            return None


@dataclass(frozen=True)
class Get:
    """GET ``path``; passes when the answer has status 200 (any status
    with ``any_status``) and its body, lower-cased with ``lower`` and with
    all whitespace squeezed out with ``squeeze`` (markup spacing varies
    across releases), holds every marker of ``all_of``, one of ``any_of``
    and one pair of ``any_pair``, and, when ``elements`` are named, is
    valid HTML containing each of them: a ``(tag, id)`` element, or a
    ``(tag, id, tag, id)`` one within another.  Records ``path`` and the
    matched ``pair`` for the details."""

    path: str
    all_of: tuple[str, ...] = ()
    any_of: tuple[str, ...] = ()
    any_pair: tuple[tuple[str, str], ...] = ()
    lower: bool = False
    squeeze: bool = False
    elements: tuple[tuple[str, ...], ...] = ()
    any_status: bool = False

    @property
    def records(self) -> set[str]:
        return {"path", "pair"} if self.any_pair else {"path"}

    def fold(self, body: str) -> str:
        """``body`` as the markers are matched against it."""
        if self.lower:
            body = body.lower()
        if self.squeeze:
            body = "".join(body.split())
        return body

    def check(self, context: PluginContext, found: dict) -> bool:
        response = context.fetch(self.path)
        if response is None or (response.status != 200 and not self.any_status):
            return False
        body = response.body
        if self.lower or self.squeeze:
            body = self.fold(body)
        for marker in self.all_of:
            if marker not in body:
                return False
        if self.any_of:
            for marker in self.any_of:
                if marker in body:
                    break
            else:
                return False
        if self.any_pair:
            for first, second in self.any_pair:
                if first in body and second in body:
                    found["pair"] = (first, second)
                    break
            else:
                return False
        if self.elements:
            page = outline(body)
            if not page.valid:
                return False
            for element in self.elements:
                if len(element) == 2:
                    if not page.has_element(*element):
                        return False
                elif not page.has_element_within(*element):
                    return False
        found["path"] = self.path
        return True


@dataclass(frozen=True)
class Json:
    """GET ``path`` as JSON; passes when it parses to a non-null document
    and each check set holds, in this order: the document is a dict with
    a value under ``key`` (spellings tried in turn, the first truthy value
    winning), which the later checks then look at; it is a ``shape``; a
    list is not empty (``non_empty``); one of ``any_true`` is ``true``;
    ``equals`` holds.  Records the ``value`` under ``key``, the ``count``
    of a list and the ``enabled`` keys for the details; ``count`` only
    when ``shape`` is ``list`` is it sure to be recorded, so only then may
    a template name it."""

    path: str
    key: tuple[str, ...] = ()
    shape: type | None = None
    non_empty: bool = False
    any_true: tuple[str, ...] = ()
    equals: tuple[str, object] | None = None

    @property
    def records(self) -> set[str]:
        return (
            ({"value"} if self.key else set())
            | ({"count"} if self.shape is list else set())
            | ({"enabled"} if self.any_true else set())
        )

    def check(self, context: PluginContext, found: dict) -> bool:
        value = context.fetch_json(self.path)
        if value is None:
            return False
        if self.key:
            if not isinstance(value, dict):
                return False
            for spelling in self.key:
                if under := value.get(spelling):
                    break
            else:
                if self.key[-1] not in value:
                    return False
            value = found["value"] = under
        if self.shape is not None and not isinstance(value, self.shape):
            return False
        if isinstance(value, list):
            found["count"] = len(value)
        if self.non_empty and not value:
            return False
        if self.any_true:
            enabled = [key for key in self.any_true if value.get(key) is True]
            if not enabled:
                return False
            found["enabled"] = ", ".join(enabled)
        if self.equals is not None:
            key, expected = self.equals
            if value.get(key) != expected:
                return False
        return True


@dataclass(frozen=True)
class Detection:
    """One row of Table 10: an application's MAV check.

    ``alternatives`` are tried in order; the first whose steps all pass
    (each step is asked only if the one before it passed) is the finding,
    and its ``details`` — one template for every alternative, or one per
    alternative — are filled from what the steps recorded.  A row whose
    template names a field its steps do not always record is refused when
    it is built."""

    slug: str
    title: str
    alternatives: tuple[tuple[Get | Json, ...], ...]
    details: str | tuple[str, ...]

    def __post_init__(self) -> None:
        for index, steps in enumerate(self.alternatives):
            recorded = set().union(*(step.records for step in steps))
            for _, name, _, _ in Formatter().parse(self.template(index)):
                if name is not None and name.split("[")[0] not in recorded:
                    raise ValueError(
                        f"{self.slug}: details name {name!r}, which "
                        f"alternative {index} does not always record"
                    )

    def template(self, index: int) -> str:
        return self.details if isinstance(self.details, str) else self.details[index]

    def detect(self, context: PluginContext) -> DetectionReport | None:
        """Run the detection steps; report only if all succeed."""
        for index, steps in enumerate(self.alternatives):
            found: dict = {}
            for step in steps:
                if not step.check(context, found):
                    break
            else:
                return DetectionReport(
                    ip=context.ip,
                    port=context.port,
                    scheme=context.scheme,
                    slug=self.slug,
                    title=self.title,
                    details=self.template(index).format(**found),
                )
        return None

"""The step vocabulary of the detection table, one behaviour at a time.

Each test runs a :class:`Get`, :class:`Json` or :class:`Detection` over a
context whose answers are already in its memo; a path the memo does not
hold goes to a dark address space and fails, as a host that does not
answer would.
"""

import pytest

from repro.core.tsunami.plugin import (
    Detection, Get, Json, PluginContext,
)
from repro.net.http import HttpResponse, Scheme
from repro.net.ipv4 import IPv4Address
from repro.net.network import SimulatedInternet
from repro.net.transport import InMemoryTransport

IP = IPv4Address.parse("93.184.216.34")


class Recording(PluginContext):
    """A context that lists the paths it is asked, in order."""

    def fetch(self, path, follow_redirects=5):
        self.asked.append(path)
        return super().fetch(path, follow_redirects)


def context(**answers):
    """A context answering ``path -> response`` from its memo; keys are
    paths with ``/`` written as ``_`` (``_`` alone is the root)."""
    memo = {
        ("/" + path.lstrip("_").replace("_", "/"), 5): response
        for path, response in answers.items()
    }
    transport = InMemoryTransport(SimulatedInternet())
    ctx = Recording(transport, IP, 80, Scheme.HTTP, memo=memo)
    ctx.asked = []
    return ctx


def passes(step, ctx):
    found = {}
    return step.check(ctx, found), found


@pytest.mark.parametrize("status, any_status, expected", [
    (200, False, True),
    (404, False, False),
    (404, True, True),
])
def test_get_wants_200_unless_any_status(status, any_status, expected):
    ctx = context(_=HttpResponse.html("marker", status=status))
    ok, _ = passes(Get("/", all_of=("marker",), any_status=any_status), ctx)
    assert ok is expected


def test_get_fails_when_the_host_does_not_answer():
    assert passes(Get("/silent"), context())[0] is False


def test_all_of_wants_every_marker():
    ctx = context(_=HttpResponse.ok("alpha beta"))
    assert passes(Get("/", all_of=("alpha", "beta")), ctx)[0]
    assert not passes(Get("/", all_of=("alpha", "gamma")), ctx)[0]


def test_any_of_wants_one_marker():
    ctx = context(_=HttpResponse.ok("alpha"))
    assert passes(Get("/", any_of=("gamma", "alpha")), ctx)[0]
    assert not passes(Get("/", any_of=("gamma", "delta")), ctx)[0]


def test_any_pair_records_the_first_pair_that_matches():
    ctx = context(_=HttpResponse.ok("a b c d"))
    step = Get("/", any_pair=(("a", "x"), ("c", "d"), ("a", "b")))
    ok, found = passes(step, ctx)
    assert ok and found["pair"] == ("c", "d")
    assert not passes(Get("/", any_pair=(("a", "x"), ("y", "d"))), ctx)[0]


@pytest.mark.parametrize("fold, marker", [
    ({"lower": True}, "kernelversion"),
    ({"squeeze": True}, '"phase":"Running"'),
])
def test_markers_are_matched_after_the_fold(fold, marker):
    ctx = context(_=HttpResponse.ok('KernelVersion "phase": "Running"'))
    assert not passes(Get("/", all_of=(marker,)), ctx)[0]
    assert passes(Get("/", all_of=(marker,), **fold), ctx)[0]


def test_elements_want_valid_html_holding_each_element():
    page = '<html><body><form id="setup"><input id="pass1"></form></body></html>'
    ctx = context(_=HttpResponse.html(page), broken=HttpResponse.html(
        '<html><body><form id="setup"></div></body></html>'
    ))
    assert passes(Get("/", elements=(("form", "setup"),)), ctx)[0]
    assert passes(Get("/", elements=(("form", "setup", "input", "pass1"),)), ctx)[0]
    assert not passes(Get("/", elements=(("form", "login"),)), ctx)[0]
    assert not passes(Get("/", elements=(("input", "pass1", "form", "setup"),)), ctx)[0]
    assert not passes(Get("/broken", elements=(("form", "setup"),)), ctx)[0]


def test_a_passing_get_records_its_path():
    ok, found = passes(Get("/admin"), context(admin=HttpResponse.ok("")))
    assert ok and found == {"path": "/admin"}


@pytest.mark.parametrize("response", [
    HttpResponse.ok("<html>not json</html>"),
    HttpResponse.json('{"items": []}', status=403),
    HttpResponse.json("null"),
])
def test_json_wants_a_non_null_document_under_400(response):
    assert passes(Json("/api"), context(api=response))[0] is False


def test_json_key_takes_the_first_truthy_spelling():
    ctx = context(
        two=HttpResponse.json('{"DebugConfig": {}, "debugConfig": {"on": 1}}'),
        none=HttpResponse.json('{"other": 1}'),
        listed=HttpResponse.json("[1]"),
    )
    ok, found = passes(Json("/two", key=("DebugConfig", "debugConfig")), ctx)
    assert ok and found["value"] == {"on": 1}
    assert not passes(Json("/none", key=("DebugConfig", "debugConfig")), ctx)[0]
    assert not passes(Json("/listed", key=("items",)), ctx)[0]


def test_json_shape_and_non_empty_count_a_list():
    ctx = context(
        jobs=HttpResponse.json('[{"id": 1}, {"id": 2}]'),
        empty=HttpResponse.json("[]"),
    )
    ok, found = passes(Json("/jobs", shape=list, non_empty=True), ctx)
    assert ok and found["count"] == 2
    assert not passes(Json("/jobs", shape=dict), ctx)[0]
    ok, found = passes(Json("/empty", shape=list), ctx)
    assert ok and found["count"] == 0
    assert not passes(Json("/empty", shape=list, non_empty=True), ctx)[0]


def test_json_any_true_records_the_enabled_keys_in_order():
    ctx = context(
        on=HttpResponse.json('{"B": true, "A": true, "C": "true"}'),
        off=HttpResponse.json('{"A": false, "B": 1}'),
    )
    ok, found = passes(Json("/on", any_true=("A", "B", "C")), ctx)
    assert ok and found["enabled"] == "A, B"
    assert not passes(Json("/off", any_true=("A", "B")), ctx)[0]


def test_json_equals_compares_one_value():
    ctx = context(api=HttpResponse.json('{"status": "OK"}'))
    assert passes(Json("/api", equals=("status", "OK")), ctx)[0]
    assert not passes(Json("/api", equals=("status", "ok")), ctx)[0]


def test_detection_stops_at_the_first_failing_step():
    ctx = context(_=HttpResponse.ok("nothing here"))
    row = Detection(
        "demo", "Demo", ((Get("/", all_of=("marker",)), Get("/next")),), "details",
    )
    assert row.detect(ctx) is None
    assert ctx.asked == ["/"]


def test_detection_tries_alternatives_in_order_with_their_details():
    ctx = context(admin=HttpResponse.ok("open"), _=HttpResponse.ok("closed"))
    row = Detection(
        "demo", "Demo open",
        ((Get("/", all_of=("open",)),), (Get("/admin", all_of=("open",)),)),
        ("front page at {path}", "admin page at {path}"),
    )
    report = row.detect(ctx)
    assert ctx.asked == ["/", "/admin"]
    assert report.details == "admin page at /admin"
    assert (report.ip, report.port, report.scheme) == (IP, 80, Scheme.HTTP)
    assert str(report) == f"[demo] {IP}:80 — Demo open"


def test_one_details_template_serves_every_alternative():
    ctx = context(b=HttpResponse.ok("x"))
    row = Detection(
        "demo", "Demo", ((Get("/a"),), (Get("/b"),)), "served at {path}",
    )
    assert row.detect(ctx).details == "served at /b"


@pytest.mark.parametrize("steps, details", [
    ((Json("/jobs", key=("jobs",)),), "{count} jobs"),
    ((Get("/"),), "markers {pair[0]!r}"),
    ((Json("/agent"),), "enabled via {enabled}"),
])
def test_a_template_naming_an_unrecorded_field_is_refused(steps, details):
    with pytest.raises(ValueError, match="does not always record"):
        Detection("demo", "Demo", (steps,), details)


def test_a_list_shape_lets_a_template_name_the_count():
    ctx = context(jobs=HttpResponse.json('{"jobs": [1, 2]}'))
    row = Detection(
        "demo", "Demo", ((Json("/jobs", key=("jobs",), shape=list),),), "{count} jobs",
    )
    assert row.detect(ctx).details == "2 jobs"

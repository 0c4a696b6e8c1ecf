"""Tests for the HTTP message model."""

import pickle

import pytest

from repro.core.fingerprint.fingerprinter import FingerprintMethod

from repro.net.http import HttpRequest, HttpResponse, Scheme


class TestHttpRequest:
    def test_get_constructor(self):
        request = HttpRequest.get("/path")
        assert request.method == "GET"
        assert not request.is_state_changing

    def test_post_is_state_changing(self):
        assert HttpRequest.post("/x", "body").is_state_changing

    def test_relative_path_rejected(self):
        with pytest.raises(ValueError):
            HttpRequest("GET", "no-slash")

    def test_header_names_lowercased(self):
        request = HttpRequest("GET", "/", headers={"X-Token": "abc"})
        assert request.headers["x-token"] == "abc"

    def test_query_parsing(self):
        request = HttpRequest.get("/install.php?step=1&lang=en")
        assert request.query == {"step": "1", "lang": "en"}
        assert request.path_only == "/install.php"

    def test_query_keeps_blank_values(self):
        assert HttpRequest.get("/x?a=").query == {"a": ""}

    def test_form_parsing(self):
        request = HttpRequest.post("/x", "a=1&b=two")
        assert request.form == {"a": "1", "b": "two"}


class TestHttpResponse:
    def test_ok(self):
        response = HttpResponse.ok("hello")
        assert response.status == 200
        assert response.reason == "OK"

    def test_redirect(self):
        response = HttpResponse.redirect("/login")
        assert response.is_redirect
        assert response.location == "/login"

    def test_redirect_requires_redirect_status(self):
        with pytest.raises(ValueError):
            HttpResponse.redirect("/x", status=200)

    def test_non_redirect_has_no_location(self):
        assert not HttpResponse.ok("x").is_redirect
        assert HttpResponse.ok("x").location is None

    def test_unauthorized_carries_www_authenticate(self):
        response = HttpResponse.unauthorized("Jenkins")
        assert response.status == 401
        assert "Jenkins" in response.headers["www-authenticate"]

    def test_json_content_type(self):
        assert HttpResponse.json("{}").content_type == "application/json"

    @pytest.mark.parametrize("response", [
        HttpResponse.ok("x", content_type="text/css"),
        HttpResponse.html("x", status=500),
        HttpResponse.json("{}"),
        HttpResponse.redirect("/login", 301),
        HttpResponse.not_found(),
        HttpResponse.unauthorized("Jenkins"),
        HttpResponse.forbidden(),
    ])
    def test_factories_give_lower_case_header_names(self, response):
        assert response.headers
        assert all(name == name.lower() for name in response.headers)

    def test_constructor_lower_cases_mixed_case_names(self):
        response = HttpResponse(200, {"Content-Type": "text/html", "X-Build": "7"})
        assert response.headers == {"content-type": "text/html", "x-build": "7"}
        assert response.content_type == "text/html"
        assert HttpResponse(204).headers == {}

    def test_equal_to_an_equal_response_but_not_to_a_tuple(self):
        response = HttpResponse(200, {"Content-Type": "text/html"}, "hi")
        assert response == HttpResponse.html("hi")
        assert not response != HttpResponse.html("hi")
        assert response != HttpResponse.html("hi", status=404)
        plain = (200, {"content-type": "text/html"}, "hi")
        assert response != plain and plain != response
        assert not response == plain and not plain == response

    def test_fields_are_read_only_and_it_does_not_hash(self):
        response = HttpResponse.ok("x")
        for name, value in (("status", 500), ("headers", {}), ("body", "y")):
            with pytest.raises(AttributeError):
                setattr(response, name, value)
        with pytest.raises(AttributeError):
            response.extra = 1
        with pytest.raises(TypeError):
            hash(response)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_survives_a_pickle_round_trip(self, protocol):
        response = HttpResponse(302, {"Location": "/x"}, "moved")
        clone = pickle.loads(pickle.dumps(response, protocol))
        assert type(clone) is HttpResponse
        assert clone == response
        assert (clone.status, clone.headers, clone.body) == (302, {"location": "/x"}, "moved")


def test_scheme_str():
    assert str(Scheme.HTTP) == "http"
    assert str(Scheme.HTTPS) == "https"


@pytest.mark.parametrize("member", [*Scheme, *FingerprintMethod])
def test_enum_members_hash_equal_after_a_pickle_round_trip(member):
    """Both enums hash by identity: a member unpickles to itself, so its
    hash, and its place as a dict key or set member, survive the trip."""
    clone = pickle.loads(pickle.dumps(member))
    assert clone is member
    assert hash(clone) == hash(member)
    assert {member: 1}[clone] == 1

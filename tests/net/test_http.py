"""Tests for the HTTP message model."""

import pytest

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


def test_scheme_str():
    assert str(Scheme.HTTP) == "http"
    assert str(Scheme.HTTPS) == "https"

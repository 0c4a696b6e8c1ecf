"""Tests for the stage-II signature prefilter."""

import re

import pytest

from repro.apps.base import AppInstance
from repro.apps.catalog import create_instance, in_scope_apps
from repro.core.masscan import PortScanResult
from repro.core.prefilter import (
    SIGNATURES,
    Prefilter,
    match_signatures,
    signature_count,
)
from repro.net.host import Host, Service
from repro.net.http import HttpResponse, Scheme
from repro.net.ipv4 import IPv4Address
from repro.net.network import SimulatedInternet
from repro.net.transport import InMemoryTransport


class TestSignatureCorpus:
    def test_90_signatures_five_per_app(self):
        # The paper: "In total, we created 90 such signatures, an average
        # of 5 per application."
        assert signature_count() == 90
        assert all(len(p) == 5 for p in SIGNATURES.values())

    def test_one_entry_per_in_scope_app(self):
        assert set(SIGNATURES) == {spec.slug for spec in in_scope_apps()}

    def test_all_patterns_compile(self):
        for patterns in SIGNATURES.values():
            for pattern in patterns:
                re.compile(pattern)

    def test_generic_pages_match_nothing(self):
        from repro.net.population import _generic_page

        for flavour in ("nginx", "apache", "iis", "router", "api"):
            assert match_signatures(_generic_page(flavour)) == ()

    def test_empty_body_matches_nothing(self):
        assert match_signatures("") == ()


class TestPrefilterProbing:
    def _internet_with(self, slug, vulnerable, port, scheme=Scheme.HTTP):
        internet = SimulatedInternet()
        ip = IPv4Address.parse("203.0.113.50")
        host = Host(ip)
        app = create_instance(slug, vulnerable=vulnerable)
        host.add_service(
            Service(port, frozenset({scheme}), app=AppInstance(app, port))
        )
        internet.add_host(host)
        return internet, ip

    def test_identifies_vulnerable_wordpress(self):
        internet, ip = self._internet_with("wordpress", True, 80)
        prefilter = Prefilter(InMemoryTransport(internet))
        findings = prefilter.probe(ip, 80)
        assert findings and "wordpress" in findings[0].candidates

    def test_identifies_secure_wordpress_too(self):
        internet, ip = self._internet_with("wordpress", False, 80)
        prefilter = Prefilter(InMemoryTransport(internet))
        findings = prefilter.probe(ip, 80)
        assert findings and "wordpress" in findings[0].candidates

    def test_port_80_only_http(self):
        prefilter = Prefilter(InMemoryTransport(SimulatedInternet()))
        assert prefilter.schemes_for_port(80) == (Scheme.HTTP,)

    def test_port_443_only_https(self):
        prefilter = Prefilter(InMemoryTransport(SimulatedInternet()))
        assert prefilter.schemes_for_port(443) == (Scheme.HTTPS,)

    def test_other_ports_try_both(self):
        prefilter = Prefilter(InMemoryTransport(SimulatedInternet()))
        assert prefilter.schemes_for_port(8080) == (Scheme.HTTP, Scheme.HTTPS)

    def test_https_service_found_on_odd_port(self):
        internet, ip = self._internet_with("jupyterlab", True, 8888, Scheme.HTTPS)
        prefilter = Prefilter(InMemoryTransport(internet))
        findings = prefilter.probe(ip, 8888)
        schemes = {finding.scheme for finding in findings}
        assert Scheme.HTTPS in schemes

    def test_response_stats_recorded(self):
        internet, ip = self._internet_with("zeppelin", True, 8080)
        prefilter = Prefilter(InMemoryTransport(internet))
        prefilter.probe(ip, 8080)
        assert prefilter.stats.http_responses.get(8080, 0) == 1

    def test_unresponsive_port_yields_nothing(self):
        internet = SimulatedInternet()
        ip = IPv4Address.parse("203.0.113.60")
        host = Host(ip)
        host.add_service(Service(2375, non_http=True))
        internet.add_host(host)
        prefilter = Prefilter(InMemoryTransport(internet))
        assert prefilter.probe(ip, 2375) == []

    def test_run_covers_port_scan_result(self):
        internet, ip = self._internet_with("polynote", True, 8192)
        scan = PortScanResult()
        scan.open_ports[ip.value] = (8192,)
        prefilter = Prefilter(InMemoryTransport(internet))
        findings = prefilter.run(scan)
        assert [f.candidates for f in findings] == [("polynote",)]

    def test_evaluate_rejects_unmatched_body(self):
        prefilter = Prefilter(InMemoryTransport(SimulatedInternet()))
        response = HttpResponse.ok("<html>nothing special</html>")
        assert prefilter.evaluate(
            IPv4Address(1), 80, Scheme.HTTP, response
        ) is None


class TestSignatureSpecificity:
    """Each app's own pages must not fire other apps' signatures wholesale."""

    @pytest.mark.parametrize("spec", in_scope_apps(), ids=lambda s: s.slug)
    def test_vulnerable_landing_hits_own_signature(self, spec):
        app = create_instance(spec.slug, vulnerable=True)
        from repro.net.http import HttpRequest

        response = app.handle(HttpRequest.get("/"))
        hops = 5
        while response.is_redirect and hops:
            response = app.handle(HttpRequest.get(response.location))
            hops -= 1
        matches = match_signatures(response.body)
        assert spec.slug in matches
        assert len(matches) <= 2  # near-exclusive attribution


class TestSinglePassMatcherEquivalence:
    """Regression gate for the single-pass matcher rewrite.

    The prescan + combined-scan matcher must report *exactly* the
    candidate set the reference one-regex-at-a-time matcher reports, for
    every canned page in the corpus and for adversarial bodies designed
    to stress the literal prescan.
    """

    def _corpus_bodies(self):
        from tests.core.corpus import build_corpus

        return [
            body
            for pages in build_corpus().values()
            for body in pages.values()
        ]

    def _adversarial_bodies(self):
        from repro.core.prefilter import _MATCHER

        literals = list(_MATCHER._literals)
        return [
            "",                                   # trivially empty
            "no signatures anywhere " * 50,       # long all-miss body
            " ".join(literals),                   # every prescan literal at once
            literals[0] * 3,                      # repeated literal
            # literals present but patterns possibly unconfirmed
            " ".join(lit.upper() for lit in literals),
            # one giant body concatenating whole corpus pages
            "\n".join(self._corpus_bodies()[:20]),
        ]

    def test_identical_candidate_sets_on_corpus(self):
        from tests.core.reference_matcher import match_signatures_naive

        bodies = self._corpus_bodies() + self._adversarial_bodies()
        assert len(bodies) > 90  # the corpus really loaded
        match_signatures.cache_clear()  # judge the matcher, not its memo
        for body in bodies:
            assert match_signatures(body) == match_signatures_naive(body)

    def test_matched_slugs_come_in_catalog_order(self):
        body = "\n".join(self._corpus_bodies()[:20])
        matched = match_signatures(body)
        assert len(matched) >= 2
        from repro.core.prefilter import _MATCHER

        order = {slug: i for i, slug in enumerate(_MATCHER.signatures)}
        assert list(matched) == sorted(matched, key=order.__getitem__)


class TestMatchMemo:
    """``match_signatures`` is computed once per distinct body content."""

    def test_one_scan_per_distinct_body(self, monkeypatch):
        from repro.core import prefilter

        scanned = []
        real_match = prefilter._MATCHER.match
        monkeypatch.setattr(
            prefilter._MATCHER, "match",
            lambda body: scanned.append(body) or real_match(body),
        )
        match_signatures.cache_clear()
        page = "<title>Zeppelin</title> zeppelinWebApp"
        for _ in range(3):
            assert match_signatures(page) == ("zeppelin",)
            assert match_signatures("nothing to see") == ()
        # equal content in a different str object is the same entry
        assert match_signatures("".join(list(page))) == ("zeppelin",)
        assert scanned == [page, "nothing to see"]

    def test_cache_is_bounded(self):
        from repro.core.prefilter import MATCH_CACHE_SIZE

        match_signatures.cache_clear()
        for index in range(MATCH_CACHE_SIZE + 10):
            match_signatures(f"<title>Zeppelin</title> {index}")
        info = match_signatures.cache_info()
        assert info.maxsize == info.currsize == MATCH_CACHE_SIZE
        # an evicted body is simply matched again
        assert match_signatures("<title>Zeppelin</title> 0") == ("zeppelin",)

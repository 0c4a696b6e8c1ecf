"""Tests for the HTML inspection helpers."""

import dataclasses

import pytest

from repro.core.tsunami import htmlcheck
from repro.core.tsunami.htmlcheck import (
    HtmlOutline,
    has_element,
    has_element_within,
    is_valid_html,
    outline,
)
from tests.core.corpus import build_corpus


class TestIsValidHtml:
    def test_wellformed(self):
        assert is_valid_html("<html><body><p>hi</p></body></html>")

    def test_empty_is_invalid(self):
        assert not is_valid_html("")

    def test_plain_text_is_invalid(self):
        assert not is_valid_html("just text, no tags")

    def test_stray_close_tag_is_invalid(self):
        assert not is_valid_html("</div><p>x</p>")

    def test_void_elements_ok(self):
        assert is_valid_html('<form><input name="a"><br></form>')


class TestHasElement:
    def test_by_tag(self):
        assert has_element("<form></form>", "form")

    def test_by_tag_and_id(self):
        assert has_element('<form id="setup"></form>', "form", "setup")
        assert not has_element('<form id="other"></form>', "form", "setup")

    def test_missing_tag(self):
        assert not has_element("<div></div>", "form")

    def test_self_closing(self):
        assert has_element('<input id="pass1"/>', "input", "pass1")


class TestHasElementWithin:
    def test_direct_child(self):
        body = '<form id="setup"><input id="pass1"></form>'
        assert has_element_within(body, "form", "setup", "input", "pass1")

    def test_nested_descendant(self):
        body = '<form id="setup"><div><input id="pass1"></div></form>'
        assert has_element_within(body, "form", "setup", "input", "pass1")

    def test_sibling_not_contained(self):
        body = '<form id="setup"></form><input id="pass1">'
        assert not has_element_within(body, "form", "setup", "input", "pass1")

    def test_wrong_outer_id(self):
        body = '<form id="login"><input id="pass1"></form>'
        assert not has_element_within(body, "form", "setup", "input", "pass1")

    def test_wildcard_ids(self):
        body = "<form><input></form>"
        assert has_element_within(body, "form", None, "input", None)


# -- the content-addressed outline ------------------------------------------------


def _reference_predicates(body: str):
    """The parse-per-predicate answers, from a fresh uncached parse and the
    linear scans the module used before it kept outlines."""
    collector = htmlcheck._parse(body)

    def ref_has_element(tag, element_id=None):
        return any(
            found_tag == tag and (element_id is None or found_id == element_id)
            for found_tag, found_id in collector.elements
        )

    def ref_has_element_within(outer_tag, outer_id, inner_tag, inner_id):
        return any(
            outer_t == outer_tag and inner_t == inner_tag
            and (outer_id is None or outer_i == outer_id)
            and (inner_id is None or inner_i == inner_id)
            for outer_t, outer_i, inner_t, inner_i in collector.contained
        )

    valid = not collector.malformed and bool(collector.elements)
    return valid, ref_has_element, ref_has_element_within, collector


_EDGE_BODIES = [
    "",
    "just text, no tags",
    "</div><p>x</p>",                       # stray close
    "<p>unclosed <b>bold",                  # never closed: still parses
    '<form id="setup"><input id="pass1"/></form></form>',
    '<div id="a"><div id="b"><span></span></div></div><span id="c">',
    "<![if gte mso 9]><p>conditional</p>",
    "<" * 50,
]


def _corpus_bodies() -> list[str]:
    return sorted({
        body for pages in build_corpus().values() for body in pages.values()
    })


class TestOutline:
    def test_is_immutable_and_hashable(self):
        page = outline('<form id="setup"><input id="pass1"></form>')
        assert isinstance(page, HtmlOutline)
        with pytest.raises(dataclasses.FrozenInstanceError):
            page.malformed = True
        with pytest.raises(AttributeError):
            page.elements.add(("p", None))
        fresh = outline.__wrapped__('<form id="setup"><input id="pass1"></form>')
        assert fresh is not page
        assert {page, fresh} == {page}

    def test_one_parse_per_distinct_body(self, monkeypatch):
        parses = []
        real_parse = htmlcheck._parse
        monkeypatch.setattr(
            htmlcheck, "_parse", lambda body: parses.append(body) or real_parse(body)
        )
        outline.cache_clear()
        body = '<form id="createItem"></form>'
        for _ in range(3):
            assert is_valid_html(body)
            assert has_element(body, "form", "createItem")
            assert not has_element_within(body, "form", None, "input", None)
        # equal content, different object: content-addressed, not identity
        assert outline("".join(list(body))) is outline(body)
        assert parses == [body]

    def test_cache_is_bounded(self):
        outline.cache_clear()
        for index in range(htmlcheck.OUTLINE_CACHE_SIZE + 10):
            outline(f'<p id="n{index}"></p>')
        info = outline.cache_info()
        assert info.maxsize == htmlcheck.OUTLINE_CACHE_SIZE
        assert info.currsize == htmlcheck.OUTLINE_CACHE_SIZE
        # an evicted body is simply parsed again, to the same answer
        assert has_element('<p id="n0"></p>', "p", "n0")

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_predicates_agree_with_uncached_reference(self, warm):
        bodies = _corpus_bodies() + _EDGE_BODIES
        assert len(bodies) > 50  # the canned pages really loaded
        if not warm:
            outline.cache_clear()
        for body in bodies:
            valid, ref_has, ref_within, collector = _reference_predicates(body)
            assert is_valid_html(body) == valid, body
            queries = set(collector.elements) | {("form", "setup"), ("nope", None)}
            queries |= {(tag, None) for tag, _ in collector.elements}
            for tag, element_id in queries:
                assert has_element(body, tag, element_id) == ref_has(
                    tag, element_id
                ), (body, tag, element_id)
            for outer in sorted(queries, key=repr):
                for inner in sorted(queries, key=repr):
                    assert has_element_within(body, *outer, *inner) == ref_within(
                        *outer, *inner
                    ), (body, outer, inner)

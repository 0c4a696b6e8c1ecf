"""Small HTML inspection helpers used by the detection plugins.

Several Table-10 steps "parse the HTML response and verify that element X
exists"; this module provides that on top of the stdlib parser, plus a
well-formedness check (the Jenkins and WordPress plugins require "valid
HTML" before trusting body markers).

Every question is answered from an :class:`HtmlOutline`, a pure function
of the body text that :func:`outline` computes once per distinct body per
process: a sweep sees the same few install/login pages on thousands of
hosts, and the stdlib parser is by far the dearest thing stage III does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from html.parser import HTMLParser

#: distinct bodies whose outline is kept.  The plugins parse 6 to 8
#: distinct pages however large the sweep; 64 entries of a body plus at
#: most ~5 KB of outline stay under 0.5 MB (measurements: DESIGN.md s8).
OUTLINE_CACHE_SIZE = 64


class _ElementCollector(HTMLParser):
    """Records (tag, id) pairs and parent-child containment."""

    def __init__(self) -> None:
        super().__init__()
        self.elements: list[tuple[str, str | None]] = []
        self._stack: list[tuple[str, str | None]] = []
        self.contained: set[tuple[str, str | None, str, str | None]] = set()
        self.malformed = False

    def handle_starttag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        element_id = dict(attrs).get("id")
        element = (tag, element_id)
        self.elements.append(element)
        for ancestor in self._stack:
            self.contained.add((*ancestor, *element))
        if tag not in _VOID_TAGS:
            self._stack.append(element)

    def handle_startendtag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        element_id = dict(attrs).get("id")
        element = (tag, element_id)
        self.elements.append(element)
        for ancestor in self._stack:
            self.contained.add((*ancestor, *element))

    def handle_endtag(self, tag: str) -> None:
        for index in range(len(self._stack) - 1, -1, -1):
            if self._stack[index][0] == tag:
                del self._stack[index:]
                return
        self.malformed = True  # close tag without a matching open


_VOID_TAGS = frozenset(
    {"area", "base", "br", "col", "embed", "hr", "img", "input",
     "link", "meta", "source", "track", "wbr"}
)


_Element = tuple[str, str | None]


@dataclass(frozen=True, slots=True)
class HtmlOutline:
    """What the plugins ask of one parsed document, indexed by question.

    An id of ``None`` is the predicates' wildcard, so every element (and
    every ancestor/descendant pair) is recorded under its own id *and*
    under ``None``: each predicate is then a single set lookup.
    """

    malformed: bool
    elements: frozenset[_Element]
    contained: frozenset[tuple[str, str | None, str, str | None]]

    @property
    def valid(self) -> bool:
        """Loose well-formedness: parses, and has at least one element."""
        return not self.malformed and bool(self.elements)

    def has_element(self, tag: str, element_id: str | None = None) -> bool:
        """Does the document contain ``<tag id=element_id>``?"""
        return (tag, element_id) in self.elements

    def has_element_within(
        self,
        outer_tag: str,
        outer_id: str | None,
        inner_tag: str,
        inner_id: str | None,
    ) -> bool:
        """Does ``<outer>`` contain ``<inner>`` (CSS ``outer inner``)?"""
        return (outer_tag, outer_id, inner_tag, inner_id) in self.contained


def _parse(body: str) -> _ElementCollector:
    collector = _ElementCollector()
    try:
        collector.feed(body)
        collector.close()
    except Exception:  # html.parser raises on pathological input
        collector.malformed = True
    return collector


def _with_wildcard(element: _Element) -> tuple[_Element, ...]:
    tag, element_id = element
    return (element,) if element_id is None else (element, (tag, None))


@lru_cache(maxsize=OUTLINE_CACHE_SIZE)
def outline(body: str) -> HtmlOutline:
    """The outline of ``body``, parsed once per distinct body."""
    collector = _parse(body)
    return HtmlOutline(
        malformed=collector.malformed,
        elements=frozenset(
            form for element in collector.elements
            for form in _with_wildcard(element)
        ),
        contained=frozenset(
            (*outer, *inner)
            for outer_tag, outer_id, inner_tag, inner_id in collector.contained
            for outer in _with_wildcard((outer_tag, outer_id))
            for inner in _with_wildcard((inner_tag, inner_id))
        ),
    )


def is_valid_html(body: str) -> bool:
    """Loose well-formedness: parses, and has at least one element."""
    return outline(body).valid


def has_element(body: str, tag: str, element_id: str | None = None) -> bool:
    """Does the document contain ``<tag id=element_id>``?"""
    return outline(body).has_element(tag, element_id)


def has_element_within(
    body: str,
    outer_tag: str,
    outer_id: str | None,
    inner_tag: str,
    inner_id: str | None,
) -> bool:
    """Does ``<outer>`` contain ``<inner>`` (CSS ``outer inner``)?"""
    return outline(body).has_element_within(
        outer_tag, outer_id, inner_tag, inner_id
    )

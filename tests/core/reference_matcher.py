"""The one-regex-at-a-time matcher, kept as the oracle for the prescan one.

This is ``repro.core.prefilter.match_signatures`` as it was before the
guaranteed-literal prescan and the per-body memo: every body is scanned
by each of the 90 corpus regexes in turn.  Production never calls it, so
it lives here and its patterns compile when a test imports it, not in
every process that imports the prefilter.  ``test_prefilter.py`` and
``test_properties.py`` require the production matcher to return the
same candidate tuples.
"""

from __future__ import annotations

import re

from repro.core.prefilter import SIGNATURES

_COMPILED: dict[str, tuple[re.Pattern[str], ...]] = {
    slug: tuple(re.compile(pattern) for pattern in patterns)
    for slug, patterns in SIGNATURES.items()
}


def match_signatures_naive(body: str) -> tuple[str, ...]:
    """Candidate slugs in corpus order: up to 90 scans, one per regex."""
    return tuple(
        slug
        for slug, patterns in _COMPILED.items()
        if any(pattern.search(body) for pattern in patterns)
    )

"""Signature precision matrix: recall on own pages, zero cross-app hits.

The one check of what stage II's signatures match
(``test_signature_shape.py`` checks only their shape): every prefilter
signature must match at least one canned page of its own application and
no canned page of any other application.  A new emulator page or a loosened regex that breaks
either property fails here with the offending pattern named; the first
run of this matrix found the 10 dead signatures EXPERIMENTS.md lists.
"""

from __future__ import annotations

import re

import pytest

from repro.core.prefilter import SIGNATURES
from tests.core.corpus import build_corpus

SLUGS = sorted(SIGNATURES)


@pytest.fixture(scope="module")
def corpus():
    return build_corpus()


def test_corpus_covers_every_signature_slug(corpus):
    assert sorted(corpus) == SLUGS


@pytest.mark.parametrize("slug", SLUGS)
def test_every_signature_matches_an_own_page(corpus, slug):
    pages = corpus[slug]
    dead = [
        pattern
        for pattern in SIGNATURES[slug]
        if not any(re.search(pattern, body) for body in pages.values())
    ]
    assert not dead, (
        f"{slug}: signatures match none of the app's own canned pages "
        f"({len(pages)} pages probed): {dead}"
    )


@pytest.mark.parametrize("slug", SLUGS)
def test_no_signature_matches_another_apps_pages(corpus, slug):
    collisions = []
    for pattern in SIGNATURES[slug]:
        regex = re.compile(pattern)
        for other, pages in corpus.items():
            if other == slug:
                continue
            for page_id, body in pages.items():
                if regex.search(body):
                    collisions.append((pattern, other, page_id))
    assert not collisions, (
        f"{slug}: signatures also match other applications' pages "
        f"(pattern, app, page): {collisions}"
    )

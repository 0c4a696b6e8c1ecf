"""The detection table's shape, checked against the catalog and the
canned pages of every in-scope application.

A row names one catalog application, and no two rows name the same one;
each step asks an absolute path; and a body marker of one application's
row appears in no other application's canned pages (after the step's
fold), so a check cannot be satisfied by another product's page.  A
marker may be absent from its own application's pages only when it comes
from a release the emulators do not serve; those are listed by name.
"""

from repro.apps.catalog import in_scope_apps
from repro.core.prefilter import SIGNATURES
from repro.core.tsunami.plugin import Get
from repro.core.tsunami.plugins import ALL_PLUGINS
from tests.core.corpus import build_corpus

#: GoCD markers from other releases in Table 10 than the emulated ones
MARKERS_FROM_OTHER_RELEASES = {
    ("gocd", "admin_pipelines"),
    ("gocd", "Dashboard - Go"),
    ("gocd", "/go/admin/pipelines/"),
    ("gocd", "Pipelines - Go"),
}


def steps(row):
    return [step for alternative in row.alternatives for step in alternative]


def markers(row):
    """``(fold, marker)`` for every body marker of a row's GET steps."""
    return [
        (step.fold, marker)
        for step in steps(row) if isinstance(step, Get)
        for marker in (
            *step.all_of, *step.any_of, *(m for pair in step.any_pair for m in pair)
        )
    ]


def test_one_row_per_in_scope_app():
    slugs = [row.slug for row in ALL_PLUGINS]
    assert sorted(slugs) == sorted(spec.slug for spec in in_scope_apps())
    assert len(set(slugs)) == len(slugs)
    assert set(slugs) <= set(SIGNATURES)


def test_every_step_asks_an_absolute_path():
    for row in ALL_PLUGINS:
        for step in steps(row):
            assert step.path.startswith("/"), (row.slug, step.path)


def test_markers_are_specific_to_their_app():
    corpus = build_corpus()
    leaks, absent = [], set()
    for row in ALL_PLUGINS:
        for fold, marker in markers(row):
            for slug, pages in corpus.items():
                found = any(marker in fold(body) for body in pages.values())
                if slug != row.slug and found:
                    leaks.append((row.slug, marker, slug))
                if slug == row.slug and not found:
                    absent.add((row.slug, marker))
    assert leaks == []
    assert absent == MARKERS_FROM_OTHER_RELEASES

"""The canned-page ground-truth corpus for stage II's signatures.

Every in-scope application emulator is instantiated in both its secure
and its vulnerable configuration, and every canned GET path (exact
routes plus the per-app query probes from Table 10) is fetched.  The
resulting ``slug -> {page id -> body}`` mapping is the ground truth of
the tests that judge stage II against the emulators:
``test_signature_matrix.py`` (a signature that matches none
of its own app's pages is dead weight, one that matches another app's
pages erodes stage-II precision), ``test_detection_table.py``,
``test_prefilter.py``, ``test_htmlcheck.py`` and
``tests/test_properties.py``.

The corpus is deterministic: fixed instantiation order, sorted paths,
and emulators that are themselves seeded by construction.
"""

from __future__ import annotations

from repro.apps.base import WebApplication
from repro.apps.catalog import create_instance, in_scope_apps
from repro.net.http import HttpRequest
from repro.util.errors import ConfigError

#: page ids are ``<config>:<path>``; config order is fixed for stability
_CONFIGS: tuple[str, ...] = ("secure", "vulnerable")


def _instance_pages(instance: WebApplication, config: str) -> dict[str, str]:
    pages: dict[str, str] = {}
    for path in instance.canned_paths():
        response = instance.handle(HttpRequest("GET", path))
        if response.body:
            pages[f"{config}:{path}"] = response.body
    return pages


def app_pages(slug: str) -> dict[str, str]:
    """All canned pages of one application, across both configurations.

    Bodies of redirects are empty and drop out; error pages (401 walls,
    404 placeholders) stay in — stage II sees those bodies too, so
    signatures must be judged against them.
    """
    pages: dict[str, str] = {}
    for config in _CONFIGS:
        try:
            instance = create_instance(slug, vulnerable=(config == "vulnerable"))
        except ConfigError:
            # Polynote-style apps that cannot be secured fall back to the
            # one configuration they have.
            continue
        pages.update(_instance_pages(instance, config))
    return pages


def build_corpus() -> dict[str, dict[str, str]]:
    """``slug -> {page id -> body}`` for the 18 in-scope applications."""
    return {spec.slug: app_pages(spec.slug) for spec in in_scope_apps()}

"""The shape of every stage-II signature, checked on the live corpus.

What the signatures match is ``test_signature_matrix.py``; this file
checks what a pattern may look like before it ever meets a page.  Every
pattern in ``SIGNATURES`` must

* compile;
* not match the empty string;
* be anchored: the prescan alternatives ``_guaranteed_literals`` extracts
  (one literal every match contains, or one per top-level branch) exist
  and are each at least four characters long;
* have no repeat or alternation inside a repeat's body, the shape behind
  catastrophic backtracking (``(a+)+x``, ``(ab|a)*c``).

The shipped corpus's only structure is a handful of top-level ``\\s*`` and
``.*`` repeats and two top-level alternations, so the last rule is
stricter than it needs to be and still holds.
"""

from __future__ import annotations

import re

import pytest

from repro.core.prefilter import SIGNATURES, _guaranteed_literals

_parser = re._parser
_REPEATS = (_parser.MAX_REPEAT, _parser.MIN_REPEAT)

#: shortest literal a pattern must guarantee to count as anchored
MIN_ANCHOR = 4


def _children(av):
    """The sub-patterns one parsed op holds (a repeat's body, a group's
    contents, each branch of an alternation, an assertion's body)."""
    for part in av if isinstance(av, (tuple, list)) else ():
        if isinstance(part, _parser.SubPattern):
            yield part
        elif isinstance(part, list):
            yield from (p for p in part if isinstance(p, _parser.SubPattern))


def _walk(parsed):
    """Every ``(op, av)`` of a parse tree, depth first."""
    for op, av in parsed:
        yield op, av
        for child in _children(av):
            yield from _walk(child)


def signature_faults(pattern: str) -> list[str]:
    """What is wrong with one signature pattern (empty: nothing)."""
    try:
        compiled = re.compile(pattern)
    except re.error as error:
        return [f"does not compile: {error}"]
    faults = []
    if compiled.search(""):
        faults.append("matches the empty string")
    prescan, _ = _guaranteed_literals(pattern)
    if not prescan or min(map(len, prescan)) < MIN_ANCHOR:
        faults.append(f"no guaranteed literal of {MIN_ANCHOR}+ chars: {prescan}")
    for op, av in _walk(_parser.parse(pattern)):
        if op in _REPEATS and any(
            inner in _REPEATS or inner is _parser.BRANCH
            for child in _children(av) for inner, _ in _walk(child)
        ):
            faults.append("a repeat or alternation inside a repeat")
            break
    return faults


#: every shipped pattern, keyed ``<slug>-<index>`` so a red case names it
SHIPPED = {
    f"{slug}-{index}": pattern
    for slug, patterns in SIGNATURES.items()
    for index, pattern in enumerate(patterns)
}


def test_the_corpus_is_90_patterns_over_18_apps():
    assert len(SHIPPED) == 90
    assert len(SIGNATURES) == 18


@pytest.mark.parametrize("pattern", list(SHIPPED.values()), ids=list(SHIPPED))
def test_every_shipped_signature_has_a_sound_shape(pattern):
    assert signature_faults(pattern) == []


@pytest.mark.parametrize("pattern, fault", [
    ("[", "does not compile"),
    ("(unclosed", "does not compile"),
    ("(a+)+x", "inside a repeat"),
    ("(x*)*y", "inside a repeat"),
    (r"(?:\d+)+z", "inside a repeat"),
    ("(ab|a)*c", "inside a repeat"),
    ("(cat|car|cart)+", "inside a repeat"),
    (".*", "matches the empty string"),
    (r"abc\d+", "no guaranteed literal"),
], ids=["no-compile", "unclosed-group", "nested-repeat", "nested-star",
        "nested-noncapturing", "branch-under-repeat", "branches-under-plus",
        "empty-match", "3-char-anchor"])
def test_a_planted_signature_is_red(pattern, fault):
    assert any(fault in found for found in signature_faults(pattern))


@pytest.mark.parametrize("pattern", [
    r"Dashboard \[Jenkins\]",
    r"jupyter-main-app.*JupyterLab",
    r"EnableLocalScriptChecks|EnableRemoteScriptChecks",
    r"[Ll]ogged in as: dr\.who",
    r"abcd\d+",
    r"token=(?:ab)+",
])
def test_a_near_miss_passes(pattern):
    assert signature_faults(pattern) == []

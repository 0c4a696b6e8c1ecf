"""Signature-corpus auditor (``SIG*`` rules).

The stage-II prefilter is 90 hand-written regexes; this analyzer makes
their *shape* a machine-checked property.  It reads the ``SIGNATURES``
dict *statically* from ``core/prefilter.py``'s tree (findings point at
the exact pattern line, and fixture trees lint without being imported):
each pattern must compile, must not have catastrophic-backtracking
structure (nested unbounded quantifiers, ambiguous alternation under a
repeat), and must carry a literal run long enough to anchor on.

What the patterns match is checked by tests, not here: own-page recall
and zero cross-application hits against the emulators' canned pages in
``tests/core/test_signature_matrix.py``, five signatures per in-scope
application in ``tests/core/test_registry.py``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

try:  # Python 3.11+ moved the sre internals under re.
    from re import _constants as sre_constants
    from re import _parser as sre_parse
except ImportError:  # pragma: no cover - older interpreters
    import sre_constants
    import sre_parse

from repro.lint.findings import Finding
from repro.lint.modules import ModuleInfo, parse_modules

#: minimum guaranteed literal run for a signature to count as anchored
MIN_LITERAL_RUN = 4


def extract_signatures(tree: ast.Module) -> list[tuple[str, str, int]]:
    """``(slug, pattern, line)`` triples from a prefilter module's AST.

    Raises :class:`ValueError` if no ``SIGNATURES`` dict literal is
    present — the auditor maps that onto a finding.
    """
    for node in ast.walk(tree):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        names = {t.id for t in targets if isinstance(t, ast.Name)}
        if "SIGNATURES" not in names or not isinstance(value, ast.Dict):
            continue
        triples: list[tuple[str, str, int]] = []
        for key, patterns in zip(value.keys, value.values):
            if not isinstance(key, ast.Constant) or not isinstance(key.value, str):
                continue
            if not isinstance(patterns, (ast.Tuple, ast.List)):
                continue
            for element in patterns.elts:
                if isinstance(element, ast.Constant) and isinstance(element.value, str):
                    triples.append((key.value, element.value, element.lineno))
        return triples
    raise ValueError("no SIGNATURES dict literal")


# -- regex shape analysis ----------------------------------------------------

_REPEAT_OPS = (sre_constants.MAX_REPEAT, sre_constants.MIN_REPEAT)


def _is_variable_repeat(op, av) -> bool:
    return op in _REPEAT_OPS and av[0] != av[1]


def _contains_variable_repeat(parsed) -> bool:
    for op, av in parsed:
        if _is_variable_repeat(op, av):
            return True
        if op in _REPEAT_OPS and _contains_variable_repeat(av[2]):
            return True
        if op is sre_constants.SUBPATTERN and _contains_variable_repeat(av[3]):
            return True
        if op is sre_constants.BRANCH and any(
            _contains_variable_repeat(branch) for branch in av[1]
        ):
            return True
    return False


def _first_literals(parsed) -> set[object]:
    """Approximate first-character set of a parse tree (for overlap tests).

    Literal ints stand for themselves; the string ``"any"`` marks
    wildcards and character classes, which overlap with everything.
    """
    for op, av in parsed:
        if op is sre_constants.LITERAL:
            return {av}
        if op in (sre_constants.ANY, sre_constants.IN, sre_constants.NOT_LITERAL):
            return {"any"}
        if op in _REPEAT_OPS:
            first = _first_literals(av[2])
            if av[0] > 0:
                return first
            continue  # optional: next item can also start the match
        if op is sre_constants.SUBPATTERN:
            return _first_literals(av[3])
        if op is sre_constants.BRANCH:
            union: set[object] = set()
            for branch in av[1]:
                union |= _first_literals(branch)
            return union
        if op is sre_constants.AT:
            continue
        return {"any"}
    return set()


def _sets_overlap(one: set[object], two: set[object]) -> bool:
    if not one or not two:
        return False
    if "any" in one or "any" in two:
        return True
    return bool(one & two)


def backtracking_hazards(pattern: str) -> list[str]:
    """Human-readable descriptions of ReDoS-shaped constructs."""
    hazards: list[str] = []

    def walk(parsed, under_repeat: bool) -> None:
        for op, av in parsed:
            if op in _REPEAT_OPS:
                variable = _is_variable_repeat(op, av)
                if variable and under_repeat:
                    hazards.append("nested unbounded quantifiers")
                if variable and _contains_variable_repeat(av[2]):
                    hazards.append("quantifier over a variable-length group")
                walk(av[2], under_repeat or av[1] > 1)
            elif op is sre_constants.SUBPATTERN:
                walk(av[3], under_repeat)
            elif op is sre_constants.BRANCH:
                if under_repeat:
                    firsts = [_first_literals(branch) for branch in av[1]]
                    for i, left in enumerate(firsts):
                        if any(_sets_overlap(left, right) for right in firsts[i + 1:]):
                            hazards.append("ambiguous alternation under a repeat")
                            break
                for branch in av[1]:
                    walk(branch, under_repeat)

    walk(sre_parse.parse(pattern), under_repeat=False)
    # Deduplicate preserving first-seen order.
    return list(dict.fromkeys(hazards))


def longest_guaranteed_literal_run(pattern: str) -> int:
    """Length of the longest literal run every match must contain."""

    def run_of(parsed) -> int:
        best = 0
        current = 0
        for op, av in parsed:
            if op is sre_constants.LITERAL:
                current += 1
            elif op in _REPEAT_OPS and av[0] == av[1]:
                # Fixed repeat: contributes its subpattern's run min times;
                # a purely literal subpattern extends the current run.
                inner = av[2]
                if all(o is sre_constants.LITERAL for o, _ in inner):
                    current += av[0] * len(inner)
                else:
                    best = max(best, current, run_of(inner))
                    current = 0
            elif op is sre_constants.SUBPATTERN:
                best = max(best, current, run_of(av[3]))
                current = 0
            elif op is sre_constants.BRANCH:
                # Either branch may match: only its own guaranteed run counts.
                best = max(best, current, min(run_of(b) for b in av[1]))
                current = 0
            elif op is sre_constants.AT:
                continue  # anchors neither extend nor break a run
            else:
                best = max(best, current)
                current = 0
        return max(best, current)

    return run_of(sre_parse.parse(pattern))


class SignatureAuditor:
    """Audit the signature shapes of one source tree (``root`` is the
    ``repro`` package directory)."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)

    def run(self, modules: dict[str, ModuleInfo] | None = None) -> list[Finding]:
        """Findings over the prefilter tree of ``modules`` (parsed if not
        given)."""
        if modules is None:
            modules = parse_modules(self.root)
        rel = (Path(self.root.name) / "core" / "prefilter.py").as_posix()
        info = modules.get(f"{self.root.name}.core.prefilter")
        if info is None:
            return [Finding(rel, 0, "LNT001",
                            f"cannot audit signatures: no {rel}")]
        if info.parse_error is not None:
            return []  # reported once, by the per-module pass
        try:
            triples = extract_signatures(info.tree)
        except ValueError as error:
            return [Finding(rel, 0, "LNT001", f"cannot audit signatures: {error}")]
        return [
            finding
            for slug, pattern, line in triples
            for finding in self._audit_pattern(rel, slug, pattern, line)
        ]

    def _audit_pattern(
        self, rel: str, slug: str, pattern: str, line: int
    ) -> list[Finding]:
        findings: list[Finding] = []
        try:
            compiled = re.compile(pattern)
        except re.error as error:
            return [Finding(rel, line, "SIG001",
                            f"{slug}: {pattern!r} does not compile: {error}")]

        for hazard in backtracking_hazards(pattern):
            findings.append(Finding(
                rel, line, "SIG002", f"{slug}: {pattern!r} has {hazard}"
            ))

        if compiled.search(""):
            findings.append(Finding(
                rel, line, "SIG003", f"{slug}: {pattern!r} matches the empty string"
            ))
        else:
            run = longest_guaranteed_literal_run(pattern)
            if run < MIN_LITERAL_RUN:
                findings.append(Finding(
                    rel, line, "SIG003",
                    f"{slug}: {pattern!r} guarantees only a {run}-char literal "
                    f"run (need {MIN_LITERAL_RUN})",
                ))
        return findings

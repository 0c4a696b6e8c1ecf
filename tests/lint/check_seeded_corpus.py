"""Analyzer self-test gate: the seeded-bug corpus must yield exactly
the known findings.

The corpus under ``fixtures/seeded_bugs/`` seeds one bug per ``DET*``
and ``OBS001`` rule, each beside a near miss that must stay silent.
This script runs the full analyzer stack over it and diffs
the result against the committed ``expected.json``.  CI runs it as a
standalone gate (any drift — a missed seeded bug, or a near miss
flagged — fails the job); the pytest suite calls :func:`check` for the
same assertion.

Usage: ``PYTHONPATH=src python tests/lint/check_seeded_corpus.py``
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "fixtures" / "seeded_bugs" / "repro"
EXPECTED = HERE / "fixtures" / "seeded_bugs" / "expected.json"


def actual_findings() -> list[dict]:
    from repro.lint.cli import run_analyzers

    # The corpus holds no signature table, which the SIG auditor reports
    # as a structural LNT001 finding — not what this gate is about.
    return [
        {"path": f.path, "line": f.line, "rule": f.rule}
        for f in run_analyzers(CORPUS)
        if f.rule != "LNT001"
    ]


def check() -> list[str]:
    """Differences between expected and actual findings (empty = pass)."""
    expected = json.loads(EXPECTED.read_text())["findings"]
    actual = actual_findings()
    problems: list[str] = []
    for finding in expected:
        if finding not in actual:
            problems.append(f"missing expected finding: {finding}")
    for finding in actual:
        if finding not in expected:
            problems.append(f"unexpected finding: {finding}")
    return problems


def main() -> int:
    problems = check()
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        return 1
    print(f"seeded-bug corpus: all {len(actual_findings())} known findings "
          "flagged, no extras.")
    return 0


if __name__ == "__main__":
    sys.exit(main())

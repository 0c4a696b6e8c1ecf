"""Signature auditor: shape analysis of the prefilter's regexes.

What the regexes match is pinned by ``tests/core/test_signature_matrix.py``
and ``tests/core/test_registry.py``, not by the linter.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.lint.cli import run_analyzers
from repro.lint.signatures import (
    SignatureAuditor,
    backtracking_hazards,
    extract_signatures,
    longest_guaranteed_literal_run,
)

REPRO_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"


def write_prefilter(tmp_path: Path, body: str) -> Path:
    root = tmp_path / "repro"
    (root / "core").mkdir(parents=True)
    (root / "core" / "prefilter.py").write_text(body)
    return root


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text())


class TestExtraction:
    def test_real_corpus_extracts_90_signatures(self):
        triples = extract_signatures(parse(REPRO_ROOT / "core" / "prefilter.py"))
        assert len(triples) == 90
        slugs = {slug for slug, _, _ in triples}
        assert len(slugs) == 18

    def test_lines_point_at_the_pattern(self, tmp_path):
        root = write_prefilter(
            tmp_path,
            'SIGNATURES = {\n    "app": (\n        r"alpha",\n        r"beta",\n    ),\n}\n',
        )
        triples = extract_signatures(parse(root / "core" / "prefilter.py"))
        assert triples == [("app", "alpha", 3), ("app", "beta", 4)]

    def test_missing_dict_raises(self, tmp_path):
        root = write_prefilter(tmp_path, "OTHER = {}\n")
        with pytest.raises(ValueError):
            extract_signatures(parse(root / "core" / "prefilter.py"))


class TestShapeRules:
    @pytest.mark.parametrize("pattern", ["(a+)+b", "(x*)*y", "(?:\\d+)+z"])
    def test_nested_quantifiers_flagged(self, pattern):
        assert backtracking_hazards(pattern)

    def test_ambiguous_alternation_under_repeat_flagged(self):
        # NB: sre folds shared alternation prefixes ("abc|abd" -> "ab[cd]"),
        # so the branches must stay distinct for BRANCH to survive parsing.
        assert "ambiguous alternation under a repeat" in backtracking_hazards(
            "(cat|car|cart)+"
        )

    @pytest.mark.parametrize(
        "pattern",
        [
            r"Dashboard \[Jenkins\]",
            r"jupyter-main-app.*JupyterLab",
            r"EnableLocalScriptChecks|EnableRemoteScriptChecks",
            r"[Ll]ogged in as: dr\.who",
        ],
    )
    def test_real_corpus_shapes_are_benign(self, pattern):
        assert backtracking_hazards(pattern) == []

    @pytest.mark.parametrize(
        "pattern,expected",
        [
            (r"wp-json", 7),
            (r".*", 0),
            (r"a.*b", 1),
            (r"alpha|beta", 4),  # min over branches
            (r"x{4}", 4),
        ],
    )
    def test_literal_run(self, pattern, expected):
        assert longest_guaranteed_literal_run(pattern) == expected


class TestAuditor:
    def test_repaired_tree_is_clean(self):
        assert SignatureAuditor(REPRO_ROOT).run() == []

    def test_redos_signature_flagged_with_location(self, tmp_path):
        root = write_prefilter(
            tmp_path, 'SIGNATURES = {\n    "app": (\n        r"(a+)+b",\n    ),\n}\n'
        )
        findings = SignatureAuditor(root).run()
        rules = {f.rule for f in findings}
        assert "SIG002" in rules
        sig002 = next(f for f in findings if f.rule == "SIG002")
        assert sig002.path == "repro/core/prefilter.py"
        assert sig002.line == 3

    def test_non_compiling_signature_flagged(self, tmp_path):
        root = write_prefilter(
            tmp_path, 'SIGNATURES = {\n    "app": (\n        r"(unclosed",\n    ),\n}\n'
        )
        findings = SignatureAuditor(root).run()
        assert [f.rule for f in findings] == ["SIG001"]

    def test_syntax_error_reported_not_raised(self, tmp_path):
        """An unparseable prefilter is one LNT001, from the one parse."""
        root = write_prefilter(tmp_path, "def broken(:\n")
        assert SignatureAuditor(root).run() == []
        findings = [
            f for f in run_analyzers(root) if f.path == "repro/core/prefilter.py"
        ]
        assert [(f.rule, f.message[:13]) for f in findings] == [
            ("LNT001", "cannot parse:")
        ]

    def test_missing_table_reported(self, tmp_path):
        root = write_prefilter(tmp_path, "OTHER = {}\n")
        assert [f.rule for f in SignatureAuditor(root).run()] == ["LNT001"]

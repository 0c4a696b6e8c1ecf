"""End-to-end CLI behaviour: exit codes, determinism, baseline, telemetry."""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path

import pytest

from repro.lint.cli import default_root, main, run_analyzers
from repro.lint.findings import RULES

BAD_PREFILTER = (
    "SIGNATURES = {\n"
    '    "app": (\n'
    '        r"(a+)+b",\n'
    "    ),\n"
    "}\n"
)

CLOCK_USER = "import time\n\ndef stamp():\n    return time.time()\n"


@pytest.fixture
def broken_tree(tmp_path: Path) -> Path:
    """A minimal repro tree with a ReDoS signature and a wall-clock read."""
    root = tmp_path / "repro"
    (root / "core").mkdir(parents=True)
    (root / "core" / "prefilter.py").write_text(BAD_PREFILTER)
    (root / "clockuser.py").write_text(CLOCK_USER)
    return root


def run(args: list[str], capsys) -> tuple[int, str]:
    code = main(args)
    return code, capsys.readouterr().out


REPO_BASELINE = Path(__file__).resolve().parents[2] / "reprolint-baseline.json"


class TestRealTree:
    def test_real_tree_with_repo_baseline_exits_zero(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        code, out = run(["--baseline", str(REPO_BASELINE)], capsys)
        assert code == 0
        assert "baselined" in out

    def test_without_baseline_only_the_sanctioned_finding_remains(
        self, tmp_path, capsys, monkeypatch
    ):
        """Exactly one finding is *deliberate* and explicitly baselined —
        the profiler's wall-clock read (DET001); nothing else may surface
        on the real tree."""
        monkeypatch.chdir(tmp_path)  # no baseline file in CWD
        code, out = run(["--format", "json"], capsys)
        assert code == 1
        report = json.loads(out)
        assert [(f["rule"], f["path"]) for f in report["findings"]] == [
            ("DET001", "repro/obs/profile.py"),
        ]

    def test_each_module_is_parsed_once(self, monkeypatch):
        """One ``ast.parse`` per ``.py`` file: both analyzers read the
        same trees."""
        root = default_root()
        parsed: list[str] = []
        real_parse = ast.parse

        def counting_parse(source, filename="<unknown>", *args, **kwargs):
            parsed.append(str(filename))
            return real_parse(source, filename, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        run_analyzers(root)
        files = sorted(
            str(path) for path in root.rglob("*.py")
            if "__pycache__" not in path.parts
        )
        assert sorted(parsed) == files


class TestBrokenTree:
    def test_exits_nonzero_and_names_the_defects(
        self, broken_tree, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        code, out = run(
            ["--root", str(broken_tree), "--format", "json"],
            capsys,
        )
        assert code == 1
        report = json.loads(out)
        rules = {f["rule"] for f in report["findings"]}
        assert {"SIG002", "DET001"} <= rules
        det = next(f for f in report["findings"] if f["rule"] == "DET001")
        assert det["path"] == "repro/clockuser.py"
        assert det["line"] == 4

    def test_consecutive_json_runs_are_byte_identical(
        self, broken_tree, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        args = ["--root", str(broken_tree), "--format", "json"]
        _, first = run(args, capsys)
        _, second = run(args, capsys)
        assert first == second
        assert not list(tmp_path.glob(".reprolint*"))  # a run leaves nothing

    def test_update_baseline_then_rerun_exits_zero(
        self, broken_tree, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        baseline = tmp_path / "baseline.json"
        args = ["--root", str(broken_tree), "--baseline", str(baseline)]
        code, _ = run(args + ["--update-baseline"], capsys)
        assert code == 0
        saved = json.loads(baseline.read_text())
        assert saved["version"] == 1 and saved["fingerprints"]
        code, out = run(args, capsys)
        assert code == 0
        assert "baselined" in out

    def test_out_file_receives_the_report(
        self, broken_tree, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        out_file = tmp_path / "report.json"
        code, _ = run(
            ["--root", str(broken_tree), "--format", "json",
             "--out", str(out_file)],
            capsys,
        )
        assert code == 1
        assert json.loads(out_file.read_text())["total"] >= 4


class TestAuxiliaryModes:
    def test_rules_catalog_lists_every_rule(self, capsys):
        code, out = run(["--rules"], capsys)
        assert code == 0
        for rule in ("SIG001", "DET001", "LNT001"):
            assert rule in out
        assert len(out.splitlines()) == 1 + len(RULES)  # header + a row each

    def test_design_catalog_lists_exactly_the_rules(self):
        """DESIGN.md §9's rule catalog table and ``RULES`` name the same
        rule ids."""
        design = (Path(__file__).resolve().parents[2] / "DESIGN.md").read_text()
        catalog = design.split("### Rule catalog", 1)[1].split("\n\n", 2)[1]
        assert set(re.findall(r"^\| `(\w+)` \|", catalog, re.M)) == set(RULES)

    def test_bad_root_is_a_usage_error(self, tmp_path, capsys):
        code = main(["--root", str(tmp_path / "missing")])
        assert code == 2

    def test_telemetry_prometheus_counts_findings(
        self, broken_tree, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        code, out = run(
            ["--root", str(broken_tree), "--telemetry", "prometheus"],
            capsys,
        )
        assert code == 1
        assert "lint_runs_total" in out
        assert 'lint_findings_total{rule="DET001"}' in out

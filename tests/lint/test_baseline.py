"""Baseline file edge cases: malformed input, versioning, staleness."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.lint.baseline import BASELINE_VERSION, Baseline
from repro.lint.cli import main
from repro.lint.findings import Finding


def finding(rule="DET001", path="repro/x.py", line=3, message="m"):
    return Finding(path=path, line=line, rule=rule, message=message)


class TestLoad:
    def test_missing_file_is_an_empty_baseline(self, tmp_path):
        baseline = Baseline.load(tmp_path / "absent.json")
        assert baseline.fingerprints == frozenset()

    def test_malformed_json_raises_value_error(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="malformed baseline"):
            Baseline.load(path)

    def test_non_object_payload_raises_value_error(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text('["just", "a", "list"]')
        with pytest.raises(ValueError, match="expected an object"):
            Baseline.load(path)

    def test_unknown_version_raises_value_error(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(
            {"version": BASELINE_VERSION + 1, "fingerprints": []}
        ))
        with pytest.raises(ValueError, match="unsupported baseline version"):
            Baseline.load(path)

    def test_missing_version_raises_value_error(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text('{"fingerprints": []}')
        with pytest.raises(ValueError, match="unsupported baseline version"):
            Baseline.load(path)

    def test_non_list_fingerprints_raise_value_error(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(
            {"version": BASELINE_VERSION, "fingerprints": {"a": 1}}
        ))
        with pytest.raises(ValueError, match="list of strings"):
            Baseline.load(path)

    def test_non_string_fingerprint_entries_raise_value_error(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(
            {"version": BASELINE_VERSION, "fingerprints": ["ok", 7]}
        ))
        with pytest.raises(ValueError, match="list of strings"):
            Baseline.load(path)

    def test_duplicate_fingerprints_collapse_to_one(self, tmp_path):
        path = tmp_path / "baseline.json"
        fp = finding().fingerprint()
        path.write_text(json.dumps(
            {"version": BASELINE_VERSION, "fingerprints": [fp, fp, fp]}
        ))
        baseline = Baseline.load(path)
        assert baseline.fingerprints == frozenset({fp})
        # and a save round-trip writes the deduplicated form
        baseline.save(path)
        assert json.loads(path.read_text())["fingerprints"] == [fp]


class TestStaleness:
    def test_fingerprint_ignores_line_numbers(self):
        a = finding(line=3)
        b = finding(line=300)
        assert a.fingerprint() == b.fingerprint()
        baseline = Baseline.from_findings([a])
        assert baseline.new_findings([b]) == []

    def test_stale_fingerprints_are_the_fixed_debt(self):
        kept = finding(rule="DET001")
        fixed = finding(rule="DET004", path="repro/y.py")
        baseline = Baseline.from_findings([kept, fixed])
        assert baseline.stale_fingerprints([kept]) == [fixed.fingerprint()]
        assert baseline.stale_fingerprints([kept, fixed]) == []


CLOCK_USER = "import time\n\ndef stamp():\n    return time.time()\n"


class TestCliRoundTrip:
    """--update-baseline must shed stale entries, and the CLI must
    surface / optionally gate on them before it does."""

    @pytest.fixture
    def tree(self, tmp_path: Path) -> Path:
        root = tmp_path / "repro"
        root.mkdir()
        (root / "clockuser.py").write_text(CLOCK_USER)
        return root

    def run(self, args, capsys):
        code = main(args)
        captured = capsys.readouterr()
        return code, captured.out

    def test_stale_entries_surface_and_update_baseline_sheds_them(
        self, tree, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        baseline = tmp_path / "baseline.json"
        args = ["--root", str(tree), "--baseline", str(baseline)]
        code, _ = self.run(args + ["--update-baseline"], capsys)
        assert code == 0
        before = json.loads(baseline.read_text())["fingerprints"]
        det_entries = [fp for fp in before if fp.startswith("DET001")]
        assert det_entries

        # fix the violation: only its fingerprint goes stale (the tree's
        # structural LNT001 findings keep firing and stay baselined)
        (tree / "clockuser.py").write_text("def stamp():\n    return 0.0\n")

        code, out = self.run(args + ["--format", "json"], capsys)
        assert code == 0  # stale alone is not a failure by default
        report = json.loads(out)
        assert report["stale_baseline_fingerprints"] == det_entries

        code, _ = self.run(args + ["--fail-on-stale"], capsys)
        assert code == 1

        # stale entries survive --out too (the report carries them)
        out_file = tmp_path / "report.json"
        code, _ = self.run(
            args + ["--format", "json", "--out", str(out_file)], capsys
        )
        written = json.loads(out_file.read_text())
        assert written["stale_baseline_fingerprints"] == det_entries

        # the round-trip: --update-baseline sheds the fixed debt
        code, _ = self.run(args + ["--update-baseline"], capsys)
        assert code == 0
        after = json.loads(baseline.read_text())["fingerprints"]
        assert after == [fp for fp in before if fp not in det_entries]
        code, _ = self.run(args + ["--fail-on-stale"], capsys)
        assert code == 0

    def test_malformed_baseline_is_a_usage_error(
        self, tree, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "baseline.json"
        bad.write_text("{oops")
        code = main(["--root", str(tree), "--baseline", str(bad)])
        assert code == 2

"""CI and the docs can only name what exists.

The legacy throughput harness kept gating CI, and being quoted by the
docs, for four PRs after the code it patched had moved: a name in a
workflow or a document is not checked by anything that runs.  This is
the check.
"""

import json
import re
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: the deleted harness and its result file
RETIRED = ("bench_throughput", "BENCH_scan")

#: history (what was done, what was asked) may name what is gone; the
#: benchmark's README is frozen with the benchmark; this file defines
#: the names
MAY_NAME_RETIRED = {
    "CHANGES.md", "ROADMAP.md", "ISSUE.md", "bench/README.md",
    "tests/test_ci_names.py",
}


def test_ci_and_docs_name_only_what_exists():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    ci = (ROOT / ".github/workflows/ci.yml").read_text()

    assert set(re.findall(r"--workload[ =]([\w.-]+)", ci)) <= workloads
    assert set(re.findall(r'metrics\["([^"]+)"\]', ci)) <= metrics
    # the gate table: a quoted key is a workload or one of its metrics
    table_keys = set(re.findall(r'"([\w.]+)"\s*:', ci))
    assert table_keys & workloads and table_keys & metrics  # table found
    assert table_keys <= workloads | metrics

    try:
        tracked = subprocess.run(
            ["git", "-C", str(ROOT), "ls-files"],
            check=True, capture_output=True, text=True, timeout=30,
        ).stdout.splitlines()
    except (OSError, subprocess.SubprocessError):
        pytest.skip("not a git checkout: no list of tracked files")
    naming = [
        name for name in tracked
        if name not in MAY_NAME_RETIRED and (ROOT / name).is_file()
        and any(
            retired in (ROOT / name).read_text(errors="ignore")
            for retired in RETIRED
        )
    ]
    assert naming == []

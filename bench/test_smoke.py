"""Smoke test of the benchmark: PYTHONPATH=src python -m pytest bench -q

Runs the whole suite once at --smoke scale and checks that what it prints
is what BENCHMARK.json promises.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_spec_is_within_the_contract_limits():
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_smoke_suite_prints_every_promised_metric(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--seed", "5", "--smoke",
         "--out", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    doc = json.loads(out.read_text())
    for key in ("nproc", "python", "commit", "seed", "scale", "mp_start_method"):
        assert key in doc["stamp"]
    (results,) = doc["sets"]
    assert list(results) == [w["name"] for w in SPEC["workloads"]]
    for workload, result in results.items():
        assert result["failed"] == 0 and result["attempted"] >= 1
        for key in ("end_to_end", "per_layer"):
            promised = {m["name"]: m["unit"] for m in SPEC[key]}
            printed = {n: m["unit"] for n, m in result[key].items()}
            assert printed == promised, (workload, key)
            for name, unit in promised.items():
                assert f"{workload}.{name}: " in done.stdout
                assert isinstance(result[key][name]["value"], float)
        assert all(m["value"] > 0 for m in result["end_to_end"].values())

"""Determinism auditor: the shipping tree is clean, violations are caught."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint.determinism import DeterminismAuditor
from tests.lint import check_seeded_corpus

REPRO_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"


def audit_source(tmp_path: Path, source: str):
    root = tmp_path / "repro"
    root.mkdir()
    (root / "module.py").write_text(source)
    return DeterminismAuditor(root).run()


class TestRealTree:
    def test_shipping_sources_are_deterministic(self):
        """Every finding in the shipping tree must be explicitly baselined
        (the profiler's wall-clock read is the only entry)."""
        import json

        baseline_path = REPRO_ROOT.parents[1] / "reprolint-baseline.json"
        baselined = set(json.loads(baseline_path.read_text())["fingerprints"])
        findings = DeterminismAuditor(REPRO_ROOT).run()
        assert [f for f in findings if f.fingerprint() not in baselined] == []
        assert {f.rule for f in findings} <= {"DET001"}


class TestWallClock:
    @pytest.mark.parametrize(
        "source",
        [
            "import time\nnow = time.time()\n",
            "import time\nnow = time.monotonic()\n",
            "import time as t\nnow = t.perf_counter()\n",
            "from time import time\nnow = time()\n",
            "from time import time as clock\nnow = clock()\n",
            "import datetime\nnow = datetime.datetime.now()\n",
            "from datetime import datetime\nnow = datetime.utcnow()\n",
            "from datetime import date\ntoday = date.today()\n",
        ],
    )
    def test_clock_reads_flagged(self, tmp_path, source):
        findings = audit_source(tmp_path, source)
        assert [f.rule for f in findings] == ["DET001"]

    def test_parsing_a_timestamp_is_fine(self, tmp_path):
        source = (
            "from datetime import datetime\n"
            'when = datetime.fromtimestamp(0)\n'
        )
        assert audit_source(tmp_path, source) == []


class TestEntropy:
    @pytest.mark.parametrize(
        "source",
        [
            "import os\ntoken = os.urandom(8)\n",
            "import uuid\nident = uuid.uuid4()\n",
            "import random\nrng = random.SystemRandom()\n",
            "from random import SystemRandom\nrng = SystemRandom()\n",
            "import secrets\ntoken = secrets.token_hex()\n",
        ],
    )
    def test_entropy_sources_flagged(self, tmp_path, source):
        findings = audit_source(tmp_path, source)
        assert [f.rule for f in findings] == ["DET002"]


class TestRandom:
    @pytest.mark.parametrize(
        "source",
        [
            "import random\nx = random.random()\n",
            "import random\nx = random.randint(0, 9)\n",
            "import random\nrng = random.Random()\n",
        ],
    )
    def test_unseeded_random_flagged(self, tmp_path, source):
        findings = audit_source(tmp_path, source)
        assert [f.rule for f in findings] == ["DET003"]

    def test_seeded_generator_is_fine(self, tmp_path):
        source = (
            "import random\n"
            "rng = random.Random(42)\n"
            "x = rng.random()\n"
        )
        assert audit_source(tmp_path, source) == []

    @pytest.mark.parametrize(
        "source",
        [
            "import random\nrng = random.Random(x=42)\n",
            "from random import Random\nrng = Random(x=7)\n",
        ],
    )
    def test_seed_passed_by_keyword_is_fine(self, tmp_path, source):
        assert audit_source(tmp_path, source) == []


class TestSetIteration:
    def test_iterating_a_set_literal_flagged(self, tmp_path):
        source = "for item in {1, 2, 3}:\n    pass\n"
        findings = audit_source(tmp_path, source)
        assert [f.rule for f in findings] == ["DET004"]
        assert findings[0].severity.value == "warning"

    def test_comprehension_over_set_call_flagged(self, tmp_path):
        source = "items = [x for x in set(range(3))]\n"
        findings = audit_source(tmp_path, source)
        assert [f.rule for f in findings] == ["DET004"]

    def test_sorted_set_is_fine(self, tmp_path):
        source = "for item in sorted({3, 1, 2}):\n    pass\n"
        assert audit_source(tmp_path, source) == []


class TestParseFailure:
    def test_unparseable_file_reported_not_raised(self, tmp_path):
        findings = audit_source(tmp_path, "def broken(:\n")
        assert [f.rule for f in findings] == ["LNT001"]


class TestUnboundedLoops:
    @pytest.mark.parametrize(
        "source",
        [
            "while True:\n    pass\n",
            "while 1:\n    pass\n",
            "def f():\n    while True:\n        step()\n",
        ],
    )
    def test_constant_true_loops_flagged(self, tmp_path, source):
        findings = audit_source(tmp_path, source)
        assert [f.rule for f in findings] == ["DET006"]

    @pytest.mark.parametrize(
        "source",
        [
            "for attempt in range(3):\n    pass\n",
            "while pending:\n    pending = step(pending)\n",
            "def f(clock, deadline):\n"
            "    while clock.now < deadline:\n        step()\n",
        ],
    )
    def test_bounded_loops_are_fine(self, tmp_path, source):
        assert audit_source(tmp_path, source) == []

    def test_nested_unbounded_loop_flagged_once_per_loop(self, tmp_path):
        source = (
            "while True:\n"
            "    while 1:\n"
            "        pass\n"
        )
        findings = audit_source(tmp_path, source)
        assert [f.rule for f in findings] == ["DET006", "DET006"]
        assert [f.line for f in findings] == [1, 2]


class TestRegressionCorpus:
    """The analyzers flag exactly the seeded bugs — no more, no less (the
    same assertion the CI gate script makes)."""

    def test_seeded_corpus_matches_expected_exactly(self):
        assert check_seeded_corpus.check() == []

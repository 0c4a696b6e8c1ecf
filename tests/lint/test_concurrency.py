"""RACE/PKL rules: each family's positive and negative cases, the
seeded regression corpus, and the clean-tree guarantee."""

from __future__ import annotations

from pathlib import Path

from repro.lint.concurrency import ConcurrencyAuditor

from tests.lint import check_seeded_corpus


def make_tree(tmp_path: Path, files: dict[str, str]) -> Path:
    root = tmp_path / "repro"
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
    return root


def audit(tmp_path: Path, files: dict[str, str]):
    return ConcurrencyAuditor(make_tree(tmp_path, files)).run()


def rules(findings) -> set[str]:
    return {f.rule for f in findings}


class TestRace001ModuleState:
    def test_worker_writing_a_module_dict_is_flagged(self, tmp_path):
        findings = audit(tmp_path, {"mod.py": (
            'WORKER_ENTRY_POINTS = ("repro.mod.work",)\n'
            "COUNTS = {}\n"
            "\n"
            "\n"
            "def work(item):\n"
            "    COUNTS[item] = 1\n"
            "    return item\n"
        )})
        assert [(f.rule, f.line) for f in findings] == [("RACE001", 6)]

    def test_global_declaration_is_flagged(self, tmp_path):
        findings = audit(tmp_path, {"mod.py": (
            'WORKER_ENTRY_POINTS = ("repro.mod.work",)\n'
            "TOTAL = 0\n"
            "\n"
            "\n"
            "def work():\n"
            "    global TOTAL\n"
            "    TOTAL += 1\n"
        )})
        assert rules(findings) == {"RACE001"}
        assert "global TOTAL" in findings[0].message

    def test_writes_to_locals_and_params_are_fine(self, tmp_path):
        findings = audit(tmp_path, {"mod.py": (
            'WORKER_ENTRY_POINTS = ("repro.mod.work",)\n'
            "\n"
            "\n"
            "def work(acc):\n"
            "    local = {}\n"
            "    local['a'] = 1\n"
            "    acc['b'] = 2\n"
            "    return local\n"
        )})
        assert findings == []


class TestRace002SharedSelf:
    SHARED_COUNTER = (
        "from concurrent.futures import ThreadPoolExecutor\n"
        "\n"
        "\n"
        "class Engine:\n"
        "    def __init__(self):\n"
        "        self.done = 0\n"
        "\n"
        "    def run(self, shards):\n"
        "        with ThreadPoolExecutor() as pool:\n"
        "            for shard in shards:\n"
        "                pool.submit(self._work, shard)\n"
        "\n"
        "    def _work(self, shard):\n"
        "        self.done += 1\n"
        "        return shard\n"
    )

    def test_worker_method_writing_self_is_flagged(self, tmp_path):
        findings = audit(tmp_path, {"eng.py": self.SHARED_COUNTER})
        race = [f for f in findings if f.rule == "RACE002"]
        assert len(race) == 1
        assert race[0].line == 14
        assert "Engine._work" in race[0].message

    def test_init_writes_are_sanctioned(self, tmp_path):
        findings = audit(tmp_path, {"eng.py": self.SHARED_COUNTER})
        assert not [f for f in findings if f.line == 6]

    def test_shard_local_objects_may_mutate_freely(self, tmp_path):
        findings = audit(tmp_path, {"eng.py": (
            'WORKER_ENTRY_POINTS = ("repro.eng.Runner.run",)\n'
            "\n"
            "\n"
            "class Pipeline:\n"
            "    def __init__(self):\n"
            "        self.hits = []\n"
            "\n"
            "    def record(self, hit):\n"
            "        self.hits.append(hit)\n"
            "        self.count = len(self.hits)\n"
            "\n"
            "\n"
            "class Runner:\n"
            "    def run(self, shard):\n"
            "        pipeline = Pipeline()\n"
            "        pipeline.record(shard)\n"
            "        return pipeline.hits\n"
        )})
        assert not [f for f in findings if f.rule == "RACE002"]


class TestRace003DispatchClosures:
    def test_inline_lambda_to_submit_is_flagged(self, tmp_path):
        findings = audit(tmp_path, {"eng.py": (
            "def run(pool, shards):\n"
            "    results = []\n"
            "    for shard in shards:\n"
            "        pool.submit(lambda: results.append(shard))\n"
            "    return results\n"
        )})
        assert rules(findings) == {"RACE003"}

    def test_nested_def_with_free_variables_is_flagged(self, tmp_path):
        findings = audit(tmp_path, {"eng.py": (
            "def run(pool, shards):\n"
            "    seen = set()\n"
            "    def note(shard):\n"
            "        seen.add(shard)\n"
            "    for shard in shards:\n"
            "        pool.submit(note, shard)\n"
        )})
        race = [f for f in findings if f.rule == "RACE003"]
        assert len(race) == 1
        assert "'seen'" in race[0].message or "seen" in race[0].message

    def test_closed_nested_def_is_fine(self, tmp_path):
        findings = audit(tmp_path, {"eng.py": (
            "def run(pool, shards):\n"
            "    def double(shard):\n"
            "        return shard * 2\n"
            "    return [pool.submit(double, s) for s in shards]\n"
        )})
        assert not [f for f in findings if f.rule == "RACE003"]


class TestWorkerPoolWrites:
    """Callables handed to ``.submit``/``.map`` must not write shared
    state; the dispatch site alone makes them worker entry points."""

    def audit(self, tmp_path, source):
        return [(f.rule, f.line) for f in audit(tmp_path, {"module.py": source})]

    def test_self_attribute_write_flagged(self, tmp_path):
        source = (
            "class Engine:\n"
            "    def run(self, pool, shards):\n"
            "        for shard in shards:\n"
            "            pool.submit(self._work, shard)\n"
            "    def _work(self, shard):\n"
            "        self.done += 1\n"
            "        return shard\n"
        )
        assert self.audit(tmp_path, source) == [("RACE002", 6)]

    def test_untyped_receiver_method_flagged(self, tmp_path):
        source = (
            "class Runner:\n"
            "    def work(self, shard):\n"
            "        self.done += 1\n"
            "        return shard\n"
            "def run(pool, runner, shards):\n"
            "    for s in shards:\n"
            "        pool.submit(runner.work, s)\n"
        )
        assert self.audit(tmp_path, source) == [("RACE002", 3)]

    def test_free_name_write_flagged(self, tmp_path):
        source = (
            "results = {}\n"
            "def work(item):\n"
            "    results[item] = item * 2\n"
            "def run(pool, items):\n"
            "    pool.map(work, items)\n"
        )
        assert self.audit(tmp_path, source) == [("RACE001", 3)]

    def test_global_and_nonlocal_flagged(self, tmp_path):
        source = (
            "count = 0\n"
            "def work(item):\n"
            "    global count\n"
            "    count = count + 1\n"
            "def run(pool, items):\n"
            "    pool.submit(work, items)\n"
        )
        assert self.audit(tmp_path, source) == [("RACE001", 3)]

    def test_param_and_local_writes_allowed(self, tmp_path):
        source = (
            "def work(item):\n"
            "    acc = {}\n"
            "    acc[item] = item * 2\n"
            "    item.results = acc\n"  # writing through a param is owned
            "    return acc\n"
            "def run(pool, items):\n"
            "    pool.submit(work, items)\n"
        )
        assert self.audit(tmp_path, source) == []

    def test_unsubmitted_function_not_audited(self, tmp_path):
        source = (
            "class Engine:\n"
            "    def _work(self, shard):\n"
            "        self.done += 1\n"
        )
        assert self.audit(tmp_path, source) == []

    def test_submit_of_plain_value_ignored(self, tmp_path):
        # e.g. ct_log.submit(certificate, when) — not a pool dispatch
        source = (
            "def publish(ct_log, certificate, when):\n"
            "    ct_log.submit(certificate, when)\n"
        )
        assert self.audit(tmp_path, source) == []

    def test_def_after_submit_site_still_audited(self, tmp_path):
        source = (
            "def run(pool, items):\n"
            "    pool.map(work, items)\n"
            "shared = []\n"
            "def work(item):\n"
            "    shared[0] = item\n"
        )
        assert self.audit(tmp_path, source) == [("RACE001", 5)]


class TestPickleBoundary:
    def test_unstripped_telemetry_handle_is_flagged(self, tmp_path):
        findings = audit(tmp_path, {"net.py": (
            "class Transport:\n"
            "    def __init__(self, telemetry=None):\n"
            "        self.telemetry = telemetry\n"
            "\n"
            "    def fork(self, seed):\n"
            "        return Transport()\n"
        )})
        pkl = [f for f in findings if f.rule == "PKL002"]
        assert len(pkl) == 1 and pkl[0].line == 3

    def test_getstate_stripping_silences_pkl002(self, tmp_path):
        findings = audit(tmp_path, {"net.py": (
            "class Transport:\n"
            "    def __init__(self, telemetry=None):\n"
            "        self.telemetry = telemetry\n"
            "\n"
            "    def fork(self, seed):\n"
            "        return Transport()\n"
            "\n"
            "    def __getstate__(self):\n"
            "        state = dict(self.__dict__)\n"
            "        state['telemetry'] = None\n"
            "        return state\n"
        )})
        assert not [f for f in findings if f.rule == "PKL002"]

    def test_getstate_in_a_base_class_counts(self, tmp_path):
        findings = audit(tmp_path, {"net.py": (
            "class Base:\n"
            "    def __getstate__(self):\n"
            "        state = dict(self.__dict__)\n"
            "        state.pop('telemetry', None)\n"
            "        return state\n"
            "\n"
            "\n"
            "class Transport(Base):\n"
            "    def __init__(self, telemetry=None):\n"
            "        self.telemetry = telemetry\n"
            "\n"
            "    def fork(self, seed):\n"
            "        return Transport()\n"
        )})
        assert not [f for f in findings if f.rule == "PKL002"]

    def test_lock_on_a_boundary_class_is_flagged(self, tmp_path):
        findings = audit(tmp_path, {"net.py": (
            "import threading\n"
            "\n"
            'PICKLE_BOUNDARY_TYPES = ("repro.net.Runner",)\n'
            "\n"
            "\n"
            "class Runner:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
        )})
        pkl = [f for f in findings if f.rule == "PKL003"]
        assert len(pkl) == 1
        assert "thread lock" in pkl[0].message

    def test_stored_lambda_in_adjacent_module_is_flagged(self, tmp_path):
        findings = audit(tmp_path, {"net.py": (
            "class Transport:\n"
            "    def fork(self, seed):\n"
            "        return self\n"
            "\n"
            "\n"
            "def build(transport, server):\n"
            "    server.responder = lambda request: 'x'\n"
        )})
        pkl = [f for f in findings if f.rule == "PKL001"]
        assert len(pkl) == 1 and pkl[0].line == 7

    def test_lambda_into_boundary_constructor_is_flagged(self, tmp_path):
        findings = audit(tmp_path, {"net.py": (
            "class Transport:\n"
            "    def __init__(self, responder=None):\n"
            "        self.responder = responder\n"
            "\n"
            "    def fork(self, seed):\n"
            "        return self\n"
            "\n"
            "\n"
            "def build():\n"
            "    return Transport(responder=lambda request: 'x')\n"
        )})
        assert "PKL001" in rules(findings)

    def test_plain_classes_are_not_boundary_audited(self, tmp_path):
        findings = audit(tmp_path, {"app.py": (
            "import threading\n"
            "\n"
            "\n"
            "class MainOnly:\n"
            "    def __init__(self, telemetry):\n"
            "        self.telemetry = telemetry\n"
            "        self._lock = threading.Lock()\n"
        )})
        assert findings == []


class TestRegressionCorpus:
    """The analyzer must flag exactly the seeded PR-7 bugs — no more,
    no less (same assertion the CI gate script makes)."""

    def test_seeded_corpus_matches_expected_exactly(self):
        assert check_seeded_corpus.check() == []


class TestCleanTree:
    def test_real_tree_has_zero_race_or_pkl_findings(self):
        import repro

        root = Path(repro.__file__).resolve().parent
        findings = ConcurrencyAuditor(root).run()
        assert findings == []

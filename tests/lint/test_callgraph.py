"""The whole-program call graph: entry points, taint, boundary classes."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint.callgraph import CallGraph


def make_tree(tmp_path: Path, files: dict[str, str]) -> Path:
    root = tmp_path / "repro"
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
    return root


def reachable(graph: CallGraph) -> set[tuple[str, bool]]:
    """(qualname, shared) pairs for every worker-reachable context."""
    return {
        (graph.function_of(ctx).qualname, ctx.shared)
        for ctx in graph.worker_contexts().values()
    }


class TestEntryPoints:
    def test_registry_resolves_methods_and_functions(self, tmp_path):
        root = make_tree(tmp_path, {"eng.py": (
            "WORKER_ENTRY_POINTS = (\n"
            '    "repro.eng.Runner.run",\n'
            '    "repro.eng.work",\n'
            '    "repro.eng.no_such_thing",\n'
            ")\n"
            "\n"
            "\n"
            "def work(item):\n"
            "    return item\n"
            "\n"
            "\n"
            "class Runner:\n"
            "    def run(self, shard):\n"
            "        return shard\n"
        )})
        graph = CallGraph(root)
        entries = {
            (fn.qualname, owner)
            for fn, owner in graph.registry_entry_points()
        }
        assert entries == {
            ("repro.eng.Runner.run", "repro.eng.Runner"),
            ("repro.eng.work", None),
        }

    def test_fork_is_a_structural_entry(self, tmp_path):
        root = make_tree(tmp_path, {
            "net.py": (
                "class Transport:\n"
                "    def fork(self, seed):\n"
                "        return self\n"
            ),
        })
        graph = CallGraph(root)
        entries = {fn.qualname for fn, _ in graph.structural_entry_points()}
        assert entries == {"repro.net.Transport.fork"}

    def test_pool_dispatch_seeds_self_methods_and_module_functions(
        self, tmp_path
    ):
        root = make_tree(tmp_path, {"eng.py": (
            "def helper(x):\n"
            "    return x\n"
            "\n"
            "\n"
            "class Engine:\n"
            "    def run(self, pool, shards):\n"
            "        for s in shards:\n"
            "            pool.submit(self._work, s)\n"
            "        pool.map(helper, shards)\n"
            "\n"
            "    def _work(self, s):\n"
            "        return s\n"
        )})
        graph = CallGraph(root)
        entries = {
            (fn.qualname, owner)
            for fn, owner in graph.dispatch_entry_points()
        }
        assert ("repro.eng.Engine._work", "repro.eng.Engine") in entries
        assert ("repro.eng.helper", None) in entries

    def test_untyped_receiver_fans_out_shared(self, tmp_path):
        root = make_tree(tmp_path, {"eng.py": (
            "class Runner:\n"
            "    def work(self, s):\n"
            "        return s\n"
            "\n"
            "\n"
            "class Other:\n"
            "    def work(self, s):\n"
            "        return s\n"
            "\n"
            "\n"
            "def run(pool, runner, shards):\n"
            "    for s in shards:\n"
            "        pool.submit(runner.work, s)\n"
        )})
        graph = CallGraph(root)
        assert len(graph.dispatch_sites) == 1
        entries = {
            (fn.qualname, owner)
            for fn, owner in graph.dispatch_entry_points()
        }
        assert entries == {
            ("repro.eng.Runner.work", "repro.eng.Runner"),
            ("repro.eng.Other.work", "repro.eng.Other"),
        }
        assert {
            ("repro.eng.Runner.work", True), ("repro.eng.Other.work", True),
        } <= reachable(graph)


class TestSharedTaint:
    @pytest.fixture
    def graph(self, tmp_path):
        return CallGraph(make_tree(tmp_path, {"eng.py": (
            'WORKER_ENTRY_POINTS = ("repro.eng.Runner.run",)\n'
            "\n"
            "\n"
            "class Pipeline:\n"
            "    def __init__(self):\n"
            "        self.state = 0\n"
            "\n"
            "    def go(self):\n"
            "        self.state += 1\n"
            "\n"
            "\n"
            "class Transport:\n"
            "    def probe(self):\n"
            "        return 1\n"
            "\n"
            "\n"
            "class Runner:\n"
            "    def run(self, shard):\n"
            "        self._step(shard)\n"
            "        pipeline = Pipeline()\n"
            "        pipeline.go()\n"
            "        return self.transport.probe()\n"
            "\n"
            "    def _step(self, shard):\n"
            "        pass\n"
        )}))

    def test_self_calls_inherit_the_shared_bit(self, graph):
        assert ("repro.eng.Runner._step", True) in reachable(graph)

    def test_constructed_objects_start_a_private_universe(self, graph):
        pairs = reachable(graph)
        # the constructor itself and methods called on the fresh object
        # are reachable, but never shared
        assert ("repro.eng.Pipeline.__init__", False) in pairs
        assert ("repro.eng.Pipeline.go", False) in pairs
        assert ("repro.eng.Pipeline.go", True) not in pairs

    def test_fields_of_a_shared_object_stay_shared(self, graph):
        # self.transport.probe(): the field of a shared runner is shared
        assert ("repro.eng.Transport.probe", True) in reachable(graph)


class TestBoundaryClasses:
    def test_registry_fork_and_subclass_closure(self, tmp_path):
        root = make_tree(tmp_path, {"net.py": (
            'PICKLE_BOUNDARY_TYPES = ("repro.net.Shard",)\n'
            "\n"
            "\n"
            "class Shard:\n"
            "    pass\n"
            "\n"
            "\n"
            "class Transport:\n"
            "    def fork(self, seed):\n"
            "        return self\n"
            "\n"
            "\n"
            "class ChaosTransport(Transport):\n"
            "    pass\n"
            "\n"
            "\n"
            "class Unrelated:\n"
            "    pass\n"
        )})
        boundary = set(CallGraph(root).boundary_classes())
        assert boundary == {
            "repro.net.Shard",
            "repro.net.Transport",
            "repro.net.ChaosTransport",
        }


class TestInheritance:
    def test_methods_resolve_through_the_static_mro(self, tmp_path):
        root = make_tree(tmp_path, {"mod.py": (
            "class Base:\n"
            "    def work(self):\n"
            "        return 1\n"
            "\n"
            "\n"
            "class Child(Base):\n"
            "    pass\n"
        )})
        graph = CallGraph(root)
        child = graph.resolve_class("repro.mod.Child")
        resolved = graph.resolve_method(child, "work")
        assert resolved is not None
        assert resolved.qualname == "repro.mod.Base.work"


class TestRobustness:
    def test_unparseable_files_are_recorded_not_fatal(self, tmp_path):
        root = make_tree(tmp_path, {
            "good.py": "def f():\n    return 1\n",
            "bad.py": "def broken(:\n",
        })
        graph = CallGraph(root)
        assert graph.modules["repro.bad"].parse_error
        assert "repro.good.f" in graph.functions

    def test_real_tree_builds_and_seeds_the_known_entries(self):
        import repro

        graph = CallGraph(Path(repro.__file__).resolve().parent)
        entries = {
            (fn.qualname, owner)
            for fn, owner in graph.registry_entry_points()
        }
        assert (
            "repro.core.parallel.ShardRunner.execute",
            "repro.core.parallel.ShardRunner",
        ) in entries
        assert ("repro.core.parallel._claim_shards", None) in entries
        # supervision is a field of the one runner: no second entry point
        assert len(entries) == 2
        boundary = set(graph.boundary_classes())
        assert "repro.core.parallel.ShardRunner" in boundary
        assert "repro.core.parallel.ShardResult" in boundary
        assert "repro.core.supervisor.SupervisorConfig" in boundary
        # ... and the supervised attempt loop is reached through the runner
        reachable = {
            graph.function_of(ctx).qualname
            for ctx in graph.worker_contexts().values()
        }
        assert "repro.core.supervisor.run_supervised" in reachable
        assert "repro.core.supervisor.ShardSupervision.note_poison" in reachable

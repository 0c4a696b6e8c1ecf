"""The worker boundary, audited on the objects a real sweep builds.

A sharded sweep is byte-identical across worker counts and executors
only while the workers keep to a contract (DESIGN.md §8): a worker
changes nothing the main process shares with it, and what crosses into a
process worker (the shard runner) or back out of one (a shard's result)
holds no main-process handle and nothing that does not survive pickling.
Two audits check that contract on a supervised sweep of the tiny study
world, behind a hostile chaos layer that holds the parent's telemetry,
with a retry policy and profiling on, at ``workers=4`` on both
executors:

* **the pickle audit** pickles the sweep's :class:`ShardRunner` and its
  shards, every callable handed to the thread pool, and every
  :class:`ShardResult` through a ``reducer_override`` that sees each
  object as pickle does (after its ``__reduce_ex__``/``__getstate__``),
  and names the attribute path of any telemetry, console or tracer
  handle, lock, file, socket, executor or local function.  Plain
  pickling is not enough: a fork child pickles nothing, and whether
  spawn refuses a handle depends on what the handle happens to hold;
* **the shared-state audit** takes a picture of every module-level
  binding of every ``repro`` module and every entry of each class one
  defines (a table or an instance by its pickled contents; a class,
  module or function, or a part that does not pickle, by identity), and
  of the runner and each layer of its transport chain, when the shards
  start, and compares it when the last one is folded.  The sweep is warm (an
  earlier sweep filled whatever fills lazily), so nothing may differ
  but the fold's own targets: the transport stats it merges and the
  parent telemetry it absorbs into.  A picture shows a change, not a
  write: the warm-up sweeps another slice of the world under another
  seed and shard size, so that what a shard writes differs from what
  the warm-up wrote.

Each fault class the audits exist for is pinned below as a planted shape
in the real module beside the near miss that must pass.
"""

import copy
import copyreg
import functools
import importlib
import io
import pickle
import pkgutil
import re
import socket
import sys
import threading
import types
from concurrent.futures import Executor, as_completed

import pytest

import repro
from repro.apps.catalog import scanned_ports
from repro.core import parallel, prefilter
from repro.core.parallel import ParallelScanEngine, ShardRunner
from repro.core.pipeline import ScanPipeline
from repro.core.prefilter import SIGNATURES
from repro.core.retry import RetryPolicy
from repro.experiments.config import StudyConfig
from repro.net import population
from repro.net.chaos import ChaosTransport
from repro.net.http import HttpResponse
from repro.net.intervals import BLOCK_SIZE, CompressedPopulation
from repro.net.ipv4 import IPv4Address
from repro.net.transport import InMemoryTransport, transport_layers
from repro.obs.console import ConsoleHub
from repro.obs.telemetry import Telemetry
from repro.obs.trace import Tracer
from tests.core.test_supervisor import HOSTILE, SUPERVISED

PROTOCOL = pickle.HIGHEST_PROTOCOL

#: what nothing crossing the boundary may hold, by the type that finds it
FORBIDDEN = (
    ((Telemetry, ConsoleHub, Tracer), "a main-process handle"),
    ((type(threading.Lock()), type(threading.RLock())), "a lock"),
    ((io.IOBase,), "an open file"),
    ((socket.socket,), "a socket"),
    ((Executor,), "an executor"),
)


def _fault(obj) -> str | None:
    for kinds, what in FORBIDDEN:
        if isinstance(obj, kinds):
            return f"{what} ({type(obj).__name__})"
    if isinstance(obj, types.FunctionType) and (
        "<lambda>" in obj.__qualname__ or "<locals>" in obj.__qualname__
    ):
        return f"a local function ({obj.__qualname__})"
    return None


class PickleAudit(pickle.Pickler):
    """Pickles values as the process executor would and records each
    forbidden object it meets; with ``labelled`` set, by the attribute
    path it was reached by (a slower walk, run once something is found)."""

    def __init__(self, labelled: bool = False) -> None:
        super().__init__(io.BytesIO(), protocol=PROTOCOL)
        self.labelled = labelled
        self.paths: dict[int, str] = {}
        self.faults: list[str] = []
        #: reduce values whose parts are labelled by id: kept alive so no
        #: id is reused while the dump runs
        self._alive: list = []

    def audit(self, value, path: str) -> None:
        self._label(value, path)
        self.dump(value)

    def _label(self, value, path: str) -> None:
        # Plain containers never reach reducer_override: label through them.
        stack = [(value, path)]
        while self.labelled and stack:
            value, path = stack.pop()
            if id(value) in self.paths:
                continue
            self.paths[id(value)] = path
            if isinstance(value, dict):
                stack.extend((v, f"{path}[{k!r}]") for k, v in value.items())
            elif isinstance(value, (list, tuple, set, frozenset)):
                stack.extend((v, f"{path}[{i}]") for i, v in enumerate(value))

    def reducer_override(self, obj):
        fault = _fault(obj)
        if fault is not None:
            self.faults.append(f"{self.paths.get(id(obj), '?')}: {fault}")
            return str, (fault,)
        if not self.labelled or isinstance(
            obj, (type, types.FunctionType, types.BuiltinFunctionType)
        ):
            return NotImplemented  # pickle's own reduction
        reduce = copyreg.dispatch_table.get(type(obj))
        value = reduce(obj) if reduce else obj.__reduce_ex__(PROTOCOL)
        if isinstance(value, str):
            return NotImplemented
        self._alive.append(value)
        path = self.paths.get(id(obj), "?")
        args = value[1] if len(value) > 1 else ()
        state = value[2] if len(value) > 2 else None
        for index, arg in enumerate(args or ()):
            self._label(arg, f"{path}<{index}>")
        if isinstance(state, tuple) and len(state) == 2:  # (dict, slots)
            state = {**(state[0] or {}), **(state[1] or {})}
        if isinstance(state, dict):
            for name, part in state.items():
                self._label(part, f"{path}.{name}")
        elif state is not None:
            self._label(state, path)
        return value


def pickle_faults(**values) -> list[str]:
    """Each forbidden object in ``values``, named by its path.  The path
    is found on a second, labelled pass only once the first finds a
    fault: on a boundary sweep's runner, shards and results the labelled
    pass takes 0.55 s to the plain one's 0.12 s (Python 3.11, one core),
    and the audit module makes some thirty such passes."""
    for labelled in (False, True):
        audit = PickleAudit(labelled)
        for name, value in values.items():
            audit.audit(value, name)
        if not audit.faults:
            break
    return audit.faults


#: attributes a picture leaves out: the next layer of the chain, pictured
#: on its own, and the fold's targets, which the main thread writes (the
#: transport stats it merges and the parent telemetry it absorbs into)
UNPICTURED = frozenset({"transport", "inner", "stats", "telemetry"})


class Picture(pickle.Pickler):
    """Pickles a value to compare it, not to load it: each object by its
    reduced state and by its attributes, so a ``__getstate__`` that leaves
    one out hides no write to it; a class, module or function, or whatever
    pickle refuses, by identity, so such a part leaves the rest of its
    table pictured."""

    def reducer_override(self, obj):
        if isinstance(obj, types.BuiltinFunctionType):
            return NotImplemented  # by name, as ``id`` below is
        if isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            return id, (id(obj),)
        reduce = copyreg.dispatch_table.get(type(obj))
        try:
            value = reduce(obj) if reduce else obj.__reduce_ex__(PROTOCOL)
        except TypeError:  # a lock, a property, ...
            return id, (id(obj),)
        if isinstance(value, str):  # a singleton pickled by name
            return id, (id(obj),)
        return value


def _picture(value) -> bytes:
    buffer = io.BytesIO()
    Picture(buffer, protocol=PROTOCOL).dump(value)
    return buffer.getvalue()


def repro_modules() -> list[types.ModuleType]:
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    return [
        module for name, module in sorted(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
    ]


def module_state() -> dict[str, object]:
    """A picture of every module-level binding of ``repro`` and of every
    entry of each class a ``repro`` module defines, so a rebound global
    shows as well as a write into a table, an instance or a class."""
    state = {}
    for module in repro_modules():
        for name, value in vars(module).items():
            if name.startswith("__"):
                continue
            state[f"{module.__name__}.{name}"] = _picture(value)
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, entry in vars(value).items():
                    if not attr.startswith("__"):
                        state[f"{module.__name__}.{name}.{attr}"] = (
                            _picture(entry)
                        )
    return state


def shared_state(runner: ShardRunner) -> dict[str, object]:
    """A picture of what no worker may change."""
    state = module_state()
    owners = [("runner", runner)] + [
        ("runner.transport" + ".inner" * depth, layer)
        for depth, layer in enumerate(transport_layers(runner.transport))
    ]
    for owner, obj in owners:
        for name, value in vars(obj).items():
            if name not in UNPICTURED:
                state[f"{owner}.{name}"] = _picture(value)
    return state


def changed(before: dict, after: dict) -> list[str]:
    return sorted(
        name for name in before.keys() | after.keys()
        if before.get(name) != after.get(name)
    )


@pytest.fixture
def boundary(monkeypatch):
    """Audits every sharded sweep run while it is active, and returns one
    record per sweep: its runner, its results and what the audits found."""
    sweeps: list[dict] = []
    submitted: list = []
    run_shards = ParallelScanEngine._run_shards

    class Pool(parallel.ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            if fn not in submitted:  # a bound method is made per access
                submitted.append(fn)
            return super().submit(fn, *args, **kwargs)

    def audited(engine, runner, todo, completed, *rest):
        submitted.clear()
        before = shared_state(runner)
        run_shards(engine, runner, todo, completed, *rest)
        results = [completed[index] for index in sorted(completed)]
        faults = pickle_faults(
            runner=runner, todo=todo, pool=submitted, results=results
        )
        sweeps.append({
            "runner": runner,
            "results": results,
            "findings": faults + [
                f"{name}: changed while the shards ran"
                for name in changed(before, shared_state(runner))
            ],
        })

    monkeypatch.setattr(parallel, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(ParallelScanEngine, "_run_shards", audited)
    return sweeps


#: /24s of the tiny study world a boundary sweep covers, and per shard
FRAME_BLOCKS = 512
SHARD_BLOCKS = 64


def study_world():
    """The tiny study world, the frame a boundary sweep covers, and the
    next slice of the world, which the warm-up sweep covers."""
    world = population.generate_internet(
        StudyConfig.tiny().with_seed(7).population
    )[0]
    frame = CompressedPopulation.build(world, 1, seed=7).frame
    bases = frame.block_bases()

    def blocks(start):
        last = bases[start + FRAME_BLOCKS - 1] | (BLOCK_SIZE - 1)
        return frame.clip(bases[start], last)

    return world, blocks(0), blocks(FRAME_BLOCKS)


def boundary_sweep(
    world, frame, executor="thread", seed=7, shard_blocks=SHARD_BLOCKS
):
    """A supervised, profiled sweep over a chaos layer with a retry policy,
    at four workers; the pipeline hands the chaos layer its telemetry."""
    pipeline = ScanPipeline(
        ChaosTransport(InMemoryTransport(world), HOSTILE, seed=21),
        scanned_ports(), seed=seed, workers=4, shard_blocks=shard_blocks,
        executor=executor, retry_policy=RetryPolicy(max_attempts=3),
        supervisor=SUPERVISED, profile=True,
    )
    return pipeline.run(frame)


def warm_up(world, elsewhere):
    boundary_sweep(world, elsewhere, seed=8, shard_blocks=2 * SHARD_BLOCKS)


@pytest.fixture(scope="module")
def warm_world():
    """The world and its two slices, after the warm-up sweep."""
    world, frame, elsewhere = study_world()
    warm_up(world, elsewhere)
    return world, frame, elsewhere


class Holder:
    """A module-level class, as every boundary type is."""

    def __init__(self, payload):
        self.rows = [{"slot": payload}]

    def probe(self):
        return self.rows


class _Stripped(Holder):
    """Holds its payload, and pickles without it."""

    def __getstate__(self):
        return {"rows": []}


class _StrippedChild(_Stripped):
    """Pickles through the ``__getstate__`` of its base."""


def _local_function():
    def nested():
        return None

    return nested


#: payload -> the fault the audit must name it by
FAULTS = {
    "telemetry": (Telemetry, "a main-process handle (Telemetry)"),
    "tracer": (Tracer, "a main-process handle (Tracer)"),
    "console": (ConsoleHub, "a main-process handle (ConsoleHub)"),
    "lock": (threading.Lock, "a lock (lock)"),
    "rlock": (threading.RLock, "a lock (RLock)"),
    "file": (lambda: open(__file__), "an open file (TextIOWrapper)"),
    "socket": (socket.socket, "a socket (socket)"),
    "executor": (
        lambda: parallel.ThreadPoolExecutor(max_workers=1),
        "an executor (ThreadPoolExecutor)",
    ),
    "lambda": (
        lambda: lambda request: None,
        "a local function (<lambda>.<locals>.<lambda>)",
    ),
    "nested-def": (
        _local_function, "a local function (_local_function.<locals>.nested)"
    ),
}


@pytest.mark.parametrize("kind", sorted(FAULTS))
def test_the_pickle_audit_names_each_forbidden_kind(kind):
    make, fault = FAULTS[kind]
    payload = make()
    try:
        assert pickle_faults(holder=Holder(payload)) == [
            f"holder.rows[0]['slot']: {fault}"
        ]
    finally:
        if isinstance(payload, Executor):
            payload.shutdown()
        elif hasattr(payload, "close"):
            payload.close()


@pytest.mark.parametrize("payload", [
    pytest.param(pickle_faults, id="module-function"),
    pytest.param(len, id="builtin"),
    pytest.param(Holder, id="class"),
    pytest.param(Holder(1).probe, id="bound-method"),
    pytest.param(population._BackgroundResponder("api"), id="callable-instance"),
    pytest.param(_Stripped(threading.Lock()), id="stripped-by-getstate"),
    pytest.param(_StrippedChild(Telemetry()), id="getstate-in-a-base"),
    pytest.param(HOSTILE, id="frozen-dataclass"),
    pytest.param(IPv4Address.parse("93.184.0.1"), id="own-reduce"),
    pytest.param(re.compile("a+"), id="copyreg-reduction"),
])
def test_the_pickle_audit_passes_what_pickles_cleanly(payload):
    assert pickle_faults(holder=Holder(payload)) == []


def test_a_condition_is_named_by_its_lock():
    assert pickle_faults(condition=threading.Condition()) == [
        "condition._lock: a lock (RLock)"
    ]


def test_a_reduce_value_without_a_state_dict_is_named_by_position():
    call = functools.partial(len, threading.Lock())
    assert pickle_faults(call=call) == ["call[1][0]: a lock (lock)"]


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_the_real_tree_keeps_the_boundary(executor, warm_world, boundary):
    """Both audits pass on the real tree.  Under ``executor="process"``
    the parent is a worker too, on the runner it ships to the children
    (under spawn the children may claim every shard before it does)."""
    world, frame, _ = warm_world
    report = boundary_sweep(world, frame, executor)
    (sweep,) = boundary
    assert sweep["findings"] == []
    assert report.findings
    assert len(sweep["results"]) == FRAME_BLOCKS // SHARD_BLOCKS
    assert all(
        result.wall is not None and result.supervisor is not None
        for result in sweep["results"]
    )


def test_the_audits_see_the_shared_objects(warm_world, boundary):
    """Every attribute of each layer is pictured but the fold's targets,
    and the chaos layer holds the parent handle that only its
    ``__getstate__`` keeps from crossing."""
    boundary_sweep(*warm_world[:2])
    runner = boundary[0]["runner"]
    state = shared_state(runner)
    assert {
        "repro.net.chaos._FAULT_SERIES",
        "runner.retry_policy",
        "runner.supervisor",
        "runner.transport.plan",
        "runner.transport._rng",
        "runner.transport.inner.internet",
    } <= state.keys()
    for owner, layer in (
        ("runner.transport", runner.transport),
        ("runner.transport.inner", runner.transport.inner),
    ):
        assert {f"{owner}.{name}" for name in vars(layer)} - state.keys() == {
            f"{owner}.{name}" for name in UNPICTURED & vars(layer).keys()
        }
    assert isinstance(runner.transport.telemetry, Telemetry)


def test_module_state_pictures_every_binding(monkeypatch):
    """A table is pictured under each name that binds it, an instance by
    its contents and a class by its entries; rebinding a global, or
    writing into a table, an instance or a class, changes the picture."""
    before = module_state()
    assert {"repro.core.SIGNATURES", "repro.core.prefilter.SIGNATURES",
            "repro.core.pipeline.DEFAULT_SHARD_BLOCKS",
            "repro.core.parallel.ShardRunner.execute"} <= before.keys()
    monkeypatch.setattr(parallel, "DEFAULT_START_METHOD", "fork")
    monkeypatch.setitem(SIGNATURES, "planted", ())
    monkeypatch.setattr(ChaosTransport, "planted", {}, raising=False)
    assert changed(before, module_state()) == [
        "repro.core.SIGNATURES",
        "repro.core.parallel.DEFAULT_START_METHOD",
        "repro.core.prefilter.SIGNATURES",
        "repro.core.prefilter._MATCHER",  # which holds SIGNATURES
        "repro.net.chaos.ChaosTransport.planted",
    ]
    before = module_state()
    ChaosTransport.planted["row"] = 1
    monkeypatch.setattr(prefilter._MATCHER, "hits", 1, raising=False)
    assert changed(before, module_state()) == [
        "repro.core.prefilter._MATCHER",
        "repro.net.chaos.ChaosTransport.planted",
    ]


def test_a_picture_sees_a_nested_change_and_keeps_unpicklables_by_identity():
    lock = threading.Lock()
    table = {"rows": [1, 2], "lock": lock, "local": _local_function()}
    before = _picture(table)
    table["rows"].append(3)
    assert _picture(table) != before
    assert _picture(lock) == _picture(lock) != _picture(threading.Lock())
    assert changed({"a": 1, "b": 2}, {"a": 1, "c": 2}) == ["b", "c"]


# -- planted shapes -----------------------------------------------------------
# Each plants, in the real module, a fault the audits exist for; its near
# miss is the real tree (the test above) unless it has its own case.  The
# plant is in place for the warm-up sweep too.

def _lambda_responders(monkeypatch):
    """A generated server answers through a lambda: the first bug the
    process pool met at runtime."""
    monkeypatch.setattr(
        population, "_make_background_responder",
        lambda flavour: lambda request: HttpResponse.html(flavour),
    )


def _telemetry_crosses(monkeypatch):
    """The chaos layer ships the parent's telemetry (the second): without
    ``__getstate__`` its handle goes along."""
    monkeypatch.delattr(ChaosTransport, "__getstate__")


def _runner_lock(monkeypatch, stripped=False):
    """The runner binds a thread lock; the near miss strips it for pickling."""
    post_init = ShardRunner.__post_init__

    def locking(self):
        post_init(self)
        self._lock = threading.Lock()

    def without_lock(self):
        state = dict(vars(self))
        state.pop("_lock")
        return state

    monkeypatch.setattr(ShardRunner, "__post_init__", locking)
    if stripped:
        monkeypatch.setattr(
            ShardRunner, "__getstate__", without_lock, raising=False
        )


def _module_write(monkeypatch, local=False):
    """A worker records its shard in a module dict; the near miss writes
    the same entry into a dict of its own."""
    monkeypatch.setattr(parallel, "SHARDS_DONE", {}, raising=False)
    execute = ShardRunner.execute

    def recording(self, shard):
        result = execute(self, shard)
        done = {} if local else parallel.SHARDS_DONE
        done[shard.index] = result.addresses
        return result

    monkeypatch.setattr(ShardRunner, "execute", recording)


def _global_rebind(monkeypatch):
    """A worker counts its shards in a module global."""
    monkeypatch.setattr(parallel, "SHARDS_RUN", 0, raising=False)
    execute = ShardRunner.execute

    def counting(self, shard):
        parallel.SHARDS_RUN += 1
        return execute(self, shard)

    monkeypatch.setattr(ShardRunner, "execute", counting)


def _runner_write(monkeypatch):
    """A worker bumps a counter on the shared runner (the third)."""
    post_init, execute = ShardRunner.__post_init__, ShardRunner.execute

    def counted(self):
        post_init(self)
        self.shards_done = 0

    def counting(self, shard):
        self.shards_done += 1
        return execute(self, shard)

    monkeypatch.setattr(ShardRunner, "__post_init__", counted)
    monkeypatch.setattr(ShardRunner, "execute", counting)


def _own_object_write(monkeypatch):
    """Near miss of a runner write: a worker mutates an object it built."""
    execute = ShardRunner.execute

    def buffered(self, shard):
        buffer = Holder(None)
        buffer.rows = [*buffer.rows, shard.index]
        return execute(self, shard)

    monkeypatch.setattr(ShardRunner, "execute", buffered)


def _instance_write(monkeypatch, own_copy=False):
    """A worker counts its shards on a module-level instance; the near miss
    counts them on a copy of it."""
    monkeypatch.setattr(prefilter._MATCHER, "hits", 0, raising=False)
    execute = ShardRunner.execute

    def counting(self, shard):
        matcher = prefilter._MATCHER
        if own_copy:
            matcher = copy.copy(matcher)
        matcher.hits += 1
        return execute(self, shard)

    monkeypatch.setattr(ShardRunner, "execute", counting)


def _class_write(monkeypatch):
    """A worker records its shard in a table its class holds."""
    monkeypatch.setattr(ShardRunner, "DONE", {}, raising=False)
    execute = ShardRunner.execute

    def recording(self, shard):
        result = execute(self, shard)
        type(self).DONE[shard.index] = result.addresses
        return result

    monkeypatch.setattr(ShardRunner, "execute", recording)


def _execute(runner, shard):
    return runner.execute(shard)


def _closure_to_pool(monkeypatch, closure=True):
    """The thread pool gets a nested def closing over the runner; the near
    miss hands it a module-level function and its arguments."""

    def thread_results(self, runner, todo):
        pool = parallel.ThreadPoolExecutor(max_workers=self.workers)

        def work(shard):
            return runner.execute(shard)

        work = work if closure else functools.partial(_execute, runner)
        try:
            futures = {pool.submit(work, s): s.index for s in todo}
            yield from ((futures[f], f.result()) for f in as_completed(futures))
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

    monkeypatch.setattr(ParallelScanEngine, "_thread_results", thread_results)


#: planted shape -> what every line the audits report must say
PLANTED = {
    "lambda-responder": (
        _lambda_responders, ".responder: a local function (_lambda_responders."
    ),
    "telemetry-crosses": (
        _telemetry_crosses,
        "runner.transport.telemetry: a main-process handle (Telemetry)",
    ),
    "lock-on-runner": (_runner_lock, "runner._lock: a lock (lock)"),
    "module-write": (
        _module_write,
        "repro.core.parallel.SHARDS_DONE: changed while the shards ran",
    ),
    "global-rebind": (
        _global_rebind,
        "repro.core.parallel.SHARDS_RUN: changed while the shards ran",
    ),
    "instance-write": (
        _instance_write,
        "repro.core.prefilter._MATCHER: changed while the shards ran",
    ),
    "class-write": (
        _class_write,
        "repro.core.parallel.ShardRunner.DONE: changed while the shards ran",
    ),
    "runner-write": (
        _runner_write, "runner.shards_done: changed while the shards ran"
    ),
    "closure-to-pool": (
        _closure_to_pool, "pool[0]: a local function (_closure_to_pool."
    ),
}


@pytest.mark.parametrize("shape", sorted(PLANTED))
def test_a_planted_shape_is_named(shape, warm_world, boundary, monkeypatch):
    plant, expected = PLANTED[shape]
    plant(monkeypatch)
    world, frame, elsewhere = (
        study_world() if shape == "lambda-responder" else warm_world
    )
    warm_up(world, elsewhere)
    boundary_sweep(world, frame)
    findings = boundary[-1]["findings"]
    assert findings
    assert all(expected in line for line in findings), findings[:5]


@pytest.mark.parametrize("near_miss", [
    pytest.param(lambda mp: _runner_lock(mp, stripped=True), id="lock-stripped"),
    pytest.param(lambda mp: _module_write(mp, local=True), id="local-write"),
    pytest.param(_own_object_write, id="own-object-write"),
    pytest.param(lambda mp: _instance_write(mp, own_copy=True), id="copy-write"),
    pytest.param(
        lambda mp: _closure_to_pool(mp, closure=False), id="partial-to-pool"
    ),
])
def test_a_near_miss_passes(near_miss, warm_world, boundary, monkeypatch):
    near_miss(monkeypatch)
    world, frame, elsewhere = warm_world
    warm_up(world, elsewhere)
    boundary_sweep(world, frame)
    assert boundary[-1]["findings"] == []

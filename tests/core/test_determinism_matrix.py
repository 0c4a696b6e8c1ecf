"""The determinism matrix: one property, every execution shape.

The repo's core invariant is that a sweep's canonical artifacts — the
serialized ScanReport and the telemetry JSONL export — are a pure
function of the seed.  This file pins that property across every
execution dimension at once:

* worker count        1 / 2 / 4 / 8
* executor            thread pool / processes, the parent among them
                      (spawn-safe pickling)
* fault plan          clean / chaos / hostile-supervised
* frame               address list / interval set (hostile-supervised)
* interruption        straight through / kill-and-resume via checkpoint
* observability       profiling + flight recorder on / off
* analysis caches     cold / pre-warmed by a sweep of another world

Each scenario has one golden run (workers=1, thread executor, straight
through); every other arm must reproduce it byte for byte, including the
quarantine lists and the canonical profile/flight dumps.  The matrix is
pruned to pairwise coverage — the hostile supervised scenario carries the
full workers × executor cross because it exercises every subsystem
(chaos, retry, quarantine, restarts, profiling) at once; the lighter
scenarios cover the remaining dimension pairs.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.apps.base import AppInstance
from repro.apps.catalog import create_instance, scanned_ports
from repro.core.checkpoint import Checkpointer
from repro.core.pipeline import ScanPipeline
from repro.core.prefilter import match_signatures
from repro.core.retry import RetryPolicy
from repro.core.serialize import report_to_dict
from repro.core.supervisor import SupervisorConfig
from repro.core.tsunami.htmlcheck import outline
from repro.net.chaos import ChaosTransport
from repro.net.host import Host, Service
from repro.net.ipv4 import IPv4Address
from repro.net.network import SimulatedInternet
from repro.net.transport import InMemoryTransport
from repro.obs.profile import ProfileRollup
from repro.util.clock import SimClock
from tests.core.test_parallel import (
    APPS,
    PLAN,
    CrashingCheckpointer,
    SimulatedCrash,
    build_world,
    whole_blocks,
)
from tests.core.test_supervisor import HOSTILE, SLOW_HOSTILE, SUPERVISED
from tests.core.test_supervisor import run_arm as supervised_arm

#: scenario name -> (fault plan, supervisor config, profiling armed,
#: sweep the world's whole /24s as an interval frame instead of a list)
SCENARIOS = {
    "clean": (None, None, False, False),
    "clean-profiled": (None, None, True, False),
    "chaos": (PLAN, None, False, False),
    "hostile-supervised": (HOSTILE, SUPERVISED, True, False),
    # The supervised gate filters stage I's op stream.  The list frame is
    # sparse (a few single-address runs per /24); the interval frame sweeps
    # those /24s whole, so the gate also sees every dead neighbour.
    "hostile-supervised-intervals": (HOSTILE, SUPERVISED, True, True),
}


def sweep(scenario, workers, executor, checkpoint=None):
    """One sweep over a freshly built world in the given shape."""
    plan, supervisor, profile, intervals = SCENARIOS[scenario]
    internet, ips = build_world()
    if intervals:
        ips = whole_blocks(ips)
    clock = SimClock()
    transport = InMemoryTransport(internet)
    if plan is not None:
        transport = ChaosTransport(transport, plan, seed=21, clock=clock)
    pipeline = ScanPipeline(
        transport, scanned_ports(), seed=7, batch_size=3,
        fingerprint=False, workers=workers, shard_blocks=2,
        executor=executor,
        retry_policy=(
            RetryPolicy(max_attempts=3, base_delay=0.5, max_delay=4.0)
            if plan is not None else None
        ),
        clock=clock, supervisor=supervisor, profile=profile,
    )
    report = pipeline.run(ips, checkpoint=checkpoint)
    return report, pipeline


def artifacts(report, pipeline):
    """Everything an arm must reproduce byte for byte."""
    rollup = ProfileRollup.from_spans(pipeline.telemetry.tracer.finished)
    return {
        "report": json.dumps(report_to_dict(report), sort_keys=True),
        "telemetry": pipeline.telemetry.export_jsonl(),
        "quarantined_hosts": sorted(report.coverage.quarantined_hosts),
        "quarantined_blocks": sorted(report.coverage.quarantined_blocks),
        "profile": json.dumps(rollup.to_dict(), sort_keys=True),
        "flight": json.dumps(
            pipeline.telemetry.flight.snapshot_state(), sort_keys=True
        ),
    }


@pytest.fixture(scope="module")
def golden():
    """Scenario -> artifacts of its workers=1 thread straight-through run,
    computed once per test session."""
    cache = {}

    def get(scenario):
        if scenario not in cache:
            cache[scenario] = artifacts(
                *sweep(scenario, workers=1, executor="thread")
            )
        return cache[scenario]

    return get


def _arm_id(arm):
    scenario, workers, executor = arm
    return f"{scenario}-w{workers}-{executor}"


#: the full workers × executor cross on the everything-at-once scenario,
#: plus pairwise coverage of the lighter scenarios.  A ``w1 process`` arm
#: runs in the parent alone; every scenario keeps a ``w≥2 process`` arm,
#: so each one crosses the pickle boundary
STRAIGHT_ARMS = [
    (scenario, workers, executor)
    for scenario in ("hostile-supervised",)
    for workers in (1, 2, 4, 8)
    for executor in ("thread", "process")
] + [
    ("clean", 1, "process"),
    ("clean", 4, "thread"),
    ("clean", 4, "process"),
    ("clean", 8, "thread"),
    ("clean-profiled", 2, "thread"),
    ("clean-profiled", 4, "process"),
    ("chaos", 2, "process"),
    ("chaos", 4, "thread"),
    ("chaos", 8, "process"),
    ("hostile-supervised-intervals", 1, "process"),
    ("hostile-supervised-intervals", 4, "thread"),
    ("hostile-supervised-intervals", 4, "process"),
]

RESUME_ARMS = [
    ("hostile-supervised", 2, "thread"),
    ("hostile-supervised", 4, "process"),
    ("chaos", 4, "process"),
    ("clean", 2, "thread"),
    ("hostile-supervised-intervals", 4, "thread"),
    ("hostile-supervised-intervals", 4, "process"),
]


class TestStraightThrough:
    @pytest.mark.parametrize("arm", STRAIGHT_ARMS, ids=_arm_id)
    def test_arm_matches_golden(self, arm, golden):
        scenario, workers, executor = arm
        assert artifacts(*sweep(scenario, workers, executor)) == golden(scenario)

    def test_every_scenario_has_an_arm_with_a_child(self):
        """``workers=1`` on processes never starts a child."""
        crossing = {
            scenario for scenario, workers, executor in STRAIGHT_ARMS
            if executor == "process" and workers >= 2
        }
        assert crossing == set(SCENARIOS)


class TestKillAndResume:
    @pytest.mark.parametrize("arm", RESUME_ARMS, ids=_arm_id)
    def test_resumed_arm_matches_golden(self, arm, golden, tmp_path):
        scenario, workers, executor = arm
        path = str(tmp_path / "sweep.ckpt")
        crasher = CrashingCheckpointer(path, 2, every_batches=1)
        with pytest.raises(SimulatedCrash):
            sweep(scenario, workers, executor, checkpoint=crasher)
        report, pipeline = sweep(
            scenario, workers, executor,
            checkpoint=Checkpointer(path, every_batches=1),
        )
        assert artifacts(report, pipeline) == golden(scenario)


class TestContentCaches:
    """Stage II/III analysis is memoised by body content, process-wide
    (``match_signatures``, ``htmlcheck.outline``).  Whatever an earlier
    sweep — of any world — left in those caches must not show in a later
    sweep's artifacts: only analysis is reused, never a response."""

    @staticmethod
    def clear_caches():
        match_signatures.cache_clear()
        outline.cache_clear()

    @staticmethod
    def sweep_vulnerable_twin():
        """The matrix world's apps in their *vulnerable* configuration on
        other addresses: same slugs and paths, different bodies."""
        internet = SimulatedInternet()
        ips = []
        for index, (slug, port) in enumerate(APPS):
            ip = IPv4Address.parse(f"93.185.7.{10 + index}")
            host = Host(ip)
            host.add_service(Service(port, app=AppInstance(
                create_instance(slug, vulnerable=True), port
            )))
            internet.add_host(host)
            ips.append(ip)
        ScanPipeline(InMemoryTransport(internet), scanned_ports(), seed=1).run(ips)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_prewarmed_sweep_matches_cold_sweep(self, workers, golden):
        self.clear_caches()
        cold = artifacts(*sweep("clean", workers, "thread"))
        assert cold == golden("clean")

        self.clear_caches()
        self.sweep_vulnerable_twin()
        assert match_signatures.cache_info().currsize > 0
        assert outline.cache_info().currsize > 0
        assert artifacts(*sweep("clean", workers, "thread")) == cold

        # and once more with every body of this world already analysed
        hits = match_signatures.cache_info().hits
        assert artifacts(*sweep("clean", workers, "thread")) == cold
        assert match_signatures.cache_info().hits > hits


class TestCrossExecutorResume:
    def test_thread_checkpoint_resumes_under_process_executor(self, tmp_path):
        """A checkpoint is executor-neutral: results saved by thread
        workers must fold identically when the resume runs on processes
        (and vice versa), because both store the same journal form."""
        path = str(tmp_path / "sweep.ckpt")
        crasher = CrashingCheckpointer(path, 2, every_batches=1)
        with pytest.raises(SimulatedCrash):
            sweep("hostile-supervised", 2, "thread", checkpoint=crasher)
        report, pipeline = sweep(
            "hostile-supervised", 2, "process",
            checkpoint=Checkpointer(path, every_batches=1),
        )
        reference = artifacts(
            *sweep("hostile-supervised", 1, "thread")
        )
        assert artifacts(report, pipeline) == reference

    @pytest.mark.parametrize("killed, resumed", [
        ((2, "thread"), (4, "process")),
        ((4, "process"), (1, "thread")),
    ], ids=["w2-thread-to-w4-process", "w4-process-to-w1-thread"])
    def test_workers_and_executor_may_change_across_a_resume(
        self, killed, resumed, golden, tmp_path
    ):
        """Worker count and executor decide no output, so the resume
        check leaves them out and either may change."""
        path = str(tmp_path / "sweep.ckpt")
        crasher = CrashingCheckpointer(path, 2, every_batches=1)
        with pytest.raises(SimulatedCrash):
            sweep("hostile-supervised", *killed, checkpoint=crasher)
        report, pipeline = sweep(
            "hostile-supervised", *resumed,
            checkpoint=Checkpointer(path, every_batches=1),
        )
        assert artifacts(report, pipeline) == golden("hostile-supervised")


class TestIncrementalRescan:
    """The rescan engine's arms of the matrix.

    The engine is sequential by contract (workers, retry, and
    supervision draw per-probe randomness that replayed hosts would not
    consume), so its golden is the SEQUENTIAL pipeline over the same
    interval frame — and its artifact is the serialized report, the only
    thing the incremental contract promises byte for byte.
    """

    @pytest.fixture(scope="class")
    def world(self):
        internet, ips = build_world()
        transport = InMemoryTransport(internet)
        return internet, transport, whole_blocks(ips)

    @pytest.fixture(scope="class")
    def sequential_golden(self, world):
        _, transport, frame = world
        pipeline = ScanPipeline(
            transport, scanned_ports(), seed=7, batch_size=8,
        )
        return json.dumps(report_to_dict(pipeline.run(frame)), sort_keys=True)

    @pytest.fixture(scope="class")
    def engine(self, world):
        from repro.core.rescan import RescanEngine

        _, transport, _ = world
        return RescanEngine(transport, scanned_ports(), seed=7, batch_size=8)

    def test_baseline_matches_sequential_golden(
        self, engine, world, sequential_golden
    ):
        _, _, frame = world
        state = engine.baseline(frame)
        assert (
            json.dumps(report_to_dict(state.report), sort_keys=True)
            == sequential_golden
        )

    def test_zero_churn_rescan_matches_sequential_golden(
        self, engine, world, sequential_golden
    ):
        _, _, frame = world
        state = engine.rescan(frame, engine.baseline(frame))
        assert (
            json.dumps(report_to_dict(state.report), sort_keys=True)
            == sequential_golden
        )

    def test_incremental_kill_and_resume_matches_golden(
        self, engine, world, sequential_golden, tmp_path
    ):
        _, _, frame = world
        prior = engine.baseline(frame)
        path = str(tmp_path / "rescan.ckpt")
        crasher = CrashingCheckpointer(path, 2, every_batches=1)
        with pytest.raises(SimulatedCrash):
            engine.rescan(frame, prior, checkpoint=crasher)
        resumed = engine.rescan(
            frame, prior, checkpoint=Checkpointer(path, every_batches=1)
        )
        assert (
            json.dumps(report_to_dict(resumed.report), sort_keys=True)
            == sequential_golden
        )

    def test_baseline_kill_and_resume_matches_golden(
        self, engine, world, sequential_golden, tmp_path
    ):
        _, _, frame = world
        path = str(tmp_path / "baseline.ckpt")
        crasher = CrashingCheckpointer(path, 2, every_batches=1)
        with pytest.raises(SimulatedCrash):
            engine.baseline(frame, checkpoint=crasher)
        resumed = engine.baseline(
            frame, checkpoint=Checkpointer(path, every_batches=1)
        )
        assert (
            json.dumps(report_to_dict(resumed.report), sort_keys=True)
            == sequential_golden
        )


# -- the matrix pinned to the parent commit ---------------------------------------

#: sha256 of every artifact below as a named commit produced it.  Every
#: golden above is computed by the commit under test, so a change that
#: moves an event the same way in every arm stays green there; not here.
#: Every non-report entry of ``clean`` and ``clean-profiled`` is still
#: commit 072f703's — the last commit with a second engine and a second
#: runner for supervised sweeps.  The chaos and supervised entries were
#: re-baselined once, by ISSUE 23's own commit: they sweep dead addresses
#: under retry, and what those are charged is the decision that commit
#: made (DESIGN.md s6).  Every ``report`` entry was re-baselined once more
#: when reports stopped carrying a telemetry copy: each is the sha256 of
#: the earlier report with its ``telemetry`` key removed.  The chaos and
#: supervised entries were re-baselined a second time when stage III began
#: asking a target each question once (the landing page stage II fetched,
#: one answer per path): those sweeps send fewer requests, so retry
#: operations, fault draws and quarantines move.  ``clean`` and
#: ``clean-profiled`` did not: without faults, an answer read from the
#: memo is the answer the wire would give.  The same entries were
#: re-baselined a third time when stage I stopped walking its re-sends
#: through the retry executor: no backoff, jitter draw or breaker check
#: in stage I, so the clock, the jitter stream and the circuits stages
#: II/III meet all move (``clean`` and ``clean-profiled`` have no retry
#: policy and did not).  Regenerate
#: (only ever from the commit whose bytes are being pinned) with
#: ``PYTHONPATH=src:. python tests/core/test_determinism_matrix.py``.
PARENT_DIGESTS = Path(__file__).parent / "fixtures" / "matrix_digests_072f703.json"

#: supervised shapes the five scenarios do not reach: a shard that runs out
#: of restarts, shards that run out of clock, and supervision left at its
#: defaults
SUPERVISED_ARMS = {
    "abandoned": SupervisorConfig(max_shard_restarts=1, crash_shards=((0, 99),)),
    "deadline": SupervisorConfig(
        deadline=40.0, probe_deadline=20.0, quarantine_threshold=1,
    ),
    "default": SupervisorConfig(),
}
#: the weather of an arm that does not run under HOSTILE: stage I sends
#: without waiting, so only slow stage-II/III answers run a shard's clock out
ARM_PLANS = {"deadline": SLOW_HOSTILE}


def _sha256(value) -> str:
    text = value if isinstance(value, str) else json.dumps(value)
    return hashlib.sha256(text.encode()).hexdigest()


def scenario_digests(scenario):
    found = artifacts(*sweep(scenario, workers=1, executor="thread"))
    return {name: _sha256(value) for name, value in found.items()}


def supervised_digests(arm, executor="thread"):
    report, pipeline = supervised_arm(
        workers=2, config=SUPERVISED_ARMS[arm], executor=executor,
        plan=ARM_PLANS.get(arm, HOSTILE),
    )
    if arm == "abandoned":
        assert report.coverage.shards_abandoned == 1
    if arm == "deadline":
        assert report.coverage.deadline_hits == 3
    return {
        "report": _sha256(json.dumps(report_to_dict(report), sort_keys=True)),
        "telemetry": _sha256(pipeline.telemetry.export_jsonl()),
        "prometheus": _sha256(pipeline.telemetry.export_prometheus()),
    }


class TestPinnedToParent:
    @pytest.fixture(scope="class")
    def parent(self):
        return json.loads(PARENT_DIGESTS.read_text())

    def test_the_fixture_covers_every_scenario_and_arm(self, parent):
        assert set(parent["scenarios"]) == set(SCENARIOS)
        assert set(parent["supervised"]) == set(SUPERVISED_ARMS)

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_scenario_reproduces_the_parent(self, scenario, parent):
        assert scenario_digests(scenario) == parent["scenarios"][scenario]

    @pytest.mark.parametrize("executor", ["thread", "process"])
    @pytest.mark.parametrize("arm", SUPERVISED_ARMS)
    def test_supervised_arm_reproduces_the_parent(self, arm, executor, parent):
        assert supervised_digests(arm, executor) == parent["supervised"][arm]


if __name__ == "__main__":
    PARENT_DIGESTS.write_text(json.dumps({
        "scenarios": {name: scenario_digests(name) for name in SCENARIOS},
        "supervised": {name: supervised_digests(name) for name in SUPERVISED_ARMS},
    }, indent=1, sort_keys=True) + "\n")

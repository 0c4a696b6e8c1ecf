"""The window recorder against its oracle, and the contract it rests on.

``repro.core.rescan`` takes a freshly probed host's record out of
``MetricsRegistry.pending`` (what the host wrote) where it used to diff
two snapshots of the whole registry.  ``reference_recorder.py`` keeps
the snapshot diff; every test here that compares the two compares
``json.dumps(state.to_dict())`` *without* ``sort_keys``: the order of a
record's counters is part of what a state file's bytes are.
"""

import hashlib
import json
import random

import pytest

from repro.apps.base import AppInstance
from repro.apps.catalog import create_instance, scanned_ports
from repro.core.checkpoint import Checkpointer
from repro.core.pipeline import ScanPipeline, ScanReport
from repro.core.rescan import RescanEngine, save_rescan_state
from repro.core.serialize import report_to_dict
from repro.net.chaos import ChaosTransport, FaultPlan
from repro.net.intervals import CompressedPopulation
from repro.net.ipv4 import IPv4Address
from repro.net.population import PopulationModel, generate_internet
from repro.net.transport import InMemoryTransport
from repro.obs.metrics import MetricsRegistry
from repro.util.errors import RecordWindowError
from tests.core.reference_recorder import ReferenceEngine
from tests.core.test_rescan import PARENT_STATE, _Crashing, parent_state_world

SEED = 20210603
BATCHES = 4

#: every fault a sweep without a retry policy survives
WEATHER = FaultPlan(
    syn_loss=0.02, request_loss=0.05, reset_rate=0.03, slow_rate=0.05,
    truncate_rate=0.05, garble_rate=0.05,
)


def ledger(state) -> str:
    return json.dumps(state.to_dict())


def assert_same_ledger(production, oracle, label: str = "") -> None:
    """Equal ``to_dict`` JSON, key order included.  A mismatch names the
    first record that differs: pytest's own diff of two megabyte strings
    does not finish."""
    if ledger(production) == ledger(oracle):
        return
    pairs = zip(production.to_dict()["records"], oracle.to_dict()["records"])
    for ours, theirs in pairs:
        if json.dumps(ours) != json.dumps(theirs):
            pytest.fail(
                f"{label}: the record of host {ours['ip']} differs\n"
                f"production: {json.dumps(ours)}\noracle:     {json.dumps(theirs)}"
            )
    pytest.fail(f"{label}: the ledgers differ outside the records they share")


def digest(report) -> str:
    text = json.dumps(report_to_dict(report), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def build_world():
    internet, _, _ = generate_internet(
        PopulationModel(awe_rate=0.0002, vuln_rate=0.2,
                        background_rate=1e-7, seed=11)
    )
    return internet, CompressedPopulation.build(internet, 0, seed=SEED)


def engine_pair(internet, frame, transport=InMemoryTransport):
    """(production, oracle), each on a transport of its own."""
    batch_size = -(-len(frame) // BATCHES)
    return tuple(
        cls(transport(internet), scanned_ports(), seed=SEED, batch_size=batch_size)
        for cls in (RescanEngine, ReferenceEngine)
    )


def scratch(engine, frame) -> ScanReport:
    """A plain sweep of the world as it now is."""
    pipe = ScanPipeline(
        InMemoryTransport(engine.transport.internet), scanned_ports(),
        seed=SEED, batch_size=engine.batch_size,
    )
    return pipe.run(frame)


def make_secure(host) -> None:
    """Redeploy ``host``'s application fixed, behind the same open port."""
    for service in host.services.values():
        if service.app is not None and service.app.app.is_vulnerable():
            service.app = AppInstance(
                create_instance(service.app.slug), service.port, service.app.tls
            )


class TestAgainstTheSnapshotDiff:
    def test_a_churn_sequence_builds_equal_ledgers_at_every_step(self, tmp_path):
        internet, pop = build_world()
        frame = pop.frame
        engines = engine_pair(internet, frame)
        rng = random.Random(5)

        def step(label, run):
            """``run(engine, prior)`` on both sides, each from its own prior."""
            states[:] = [run(e, prior) for e, prior in zip(engines, states)]
            assert_same_ledger(states[0], states[1], label)
            return states[0]

        states = [None, None]
        first = step("baseline", lambda e, _: e.baseline(frame))
        assert len(first.records) > 1000
        assert sum(1 for r in first.records.values() if r.finding) > 1000
        assert digest(first.report) == digest(scratch(engines[0], frame))

        # hosts removed: port-level churn, self-detected, neighbours re-probed
        removed = [
            internet.host_at(IPv4Address(value))
            for value in rng.sample(sorted(first.records), 40)
        ]
        for host in removed:
            internet.remove_host(host.ip)
        gone = step("removed", lambda e, prior: e.rescan(frame, prior))
        assert len(gone.records) == len(first.records) - 40
        assert digest(gone.report) == digest(scratch(engines[0], frame))

        for host in removed:
            internet.add_host(host)
        back = step("restored", lambda e, prior: e.rescan(frame, prior))
        assert digest(back.report) == digest(first.report)

        # content changed behind the same port, and the caller says where
        fixed, unannounced = rng.sample(internet.true_vulnerable_hosts(), 2)
        make_secure(fixed)
        hinted = step(
            "hinted", lambda e, prior: e.rescan(frame, prior, [fixed.ip])
        )
        assert fixed.ip.value not in {
            ip.value for ip in hinted.report.vulnerable_ips()
        }
        assert digest(hinted.report) == digest(scratch(engines[0], frame))

        # ... and nobody says: stage I cannot see it, the stale record replays
        make_secure(unannounced)
        stale = step("unhinted", lambda e, prior: e.rescan(frame, prior))
        assert digest(stale.report) == digest(hinted.report)
        assert digest(stale.report) != digest(scratch(engines[0], frame))

        # a kill after the second save, resumed: checkpoint-replayed,
        # prior-replayed and freshly probed hosts in one ledger
        for host in removed[:15]:
            internet.remove_host(host.ip)

        def killed_and_resumed(engine, prior):
            path = tmp_path / f"{type(engine).__name__}.ckpt"
            hint = [unannounced.ip]
            with pytest.raises(KeyboardInterrupt):
                engine.rescan(frame, prior, hint, checkpoint=_Crashing(path, 2))
            return engine.rescan(frame, prior, hint, checkpoint=Checkpointer(path))

        resumed = step("resumed", killed_and_resumed)
        assert digest(resumed.report) == digest(scratch(engines[0], frame))
        uninterrupted = engines[0].rescan(frame, stale, [unannounced.ip])
        assert_same_ledger(resumed, uninterrupted, "resumed vs uninterrupted")

    def test_a_chaos_baseline_builds_equal_ledgers(self):
        internet, pop = build_world()
        production, oracle = engine_pair(
            internet, pop.frame,
            lambda world: ChaosTransport(InMemoryTransport(world), WEATHER, seed=11),
        )
        recorded = production.baseline(pop.frame)
        assert_same_ledger(recorded, oracle.baseline(pop.frame))
        # the faults a host's own probes met are in its record: the chaos
        # counter is written where every other per-probe counter is
        kinds = {
            name for record in recorded.records.values()
            for name in record.counters if name.startswith("chaos_faults_total")
        }
        assert {
            "chaos_faults_total{kind=request-drop}",
            "chaos_faults_total{kind=reset}",
            "chaos_faults_total{kind=truncate}",
            "chaos_faults_total{kind=garble}",
        } <= kinds
        assert "chaos_faults_total{kind=syn-drop}" not in kinds  # stage I's


def test_a_fresh_baseline_saves_the_committed_state_byte_for_byte(tmp_path):
    """The fixture was written by commit 55661fa; a record taken today
    lists the same counters, in the same order, as floats."""
    _, frame, engine = parent_state_world()
    save_rescan_state(engine.baseline(frame), tmp_path / "fresh.json")
    assert (tmp_path / "fresh.json").read_bytes() == PARENT_STATE.read_bytes()


@pytest.fixture
def flat_reads(monkeypatch) -> list[int]:
    """One entry per ``MetricsRegistry.counters_flat`` call while the
    test runs: the whole-registry read a record must not cost."""
    reads: list[int] = []
    counters_flat = MetricsRegistry.counters_flat

    def counted(self):
        reads.append(len(self._counters))
        return counters_flat(self)

    monkeypatch.setattr(MetricsRegistry, "counters_flat", counted)
    return reads


class TestWhatARecordCosts:
    def test_registry_reads_follow_batches_not_hosts(self, flat_reads, tmp_path):
        internet, pop = build_world()
        production, oracle = engine_pair(internet, pop.frame)

        baseline = production.baseline(pop.frame)
        assert len(baseline.records) > 1000  # every one of them probed fresh
        assert len(flat_reads) == 1  # the sweep's closing summary

        del flat_reads[:]
        for ip in random.Random(9).sample(internet.populated_addresses(), 40):
            internet.remove_host(ip)
        production.rescan(pop.frame, baseline)
        assert len(flat_reads) == 1

        # a checkpointed sweep reads once more per save, still not per host
        del flat_reads[:]
        production.baseline(pop.frame, Checkpointer(tmp_path / "b.ckpt"))
        assert len(flat_reads) <= BATCHES + 1

        # the oracle is what the pin is about: two reads per host step
        del flat_reads[:]
        oracle.baseline(pop.frame)
        assert len(flat_reads) > 2 * len(baseline.records)


class _ReadingTransport(InMemoryTransport):
    """Reads a counter in the middle of every host, as a curious plugin
    or a debugging hook might."""

    #: joined to the sweep's handle by ``ScanPipeline.__post_init__``
    telemetry = None

    def get(self, *args, **kwargs):
        self.telemetry.metrics.counter_value("prefilter_fetches_total", scheme="http")
        return super().get(*args, **kwargs)


class TestTheWindowContract:
    def test_every_publish_is_counted(self):
        registry = MetricsRegistry()
        assert registry.publishes == 0
        registry.publish()
        registry.counter_value("anything")
        registry.counters_flat()
        assert registry.publishes == 3
        registry.published_state()  # the one read that does not publish
        assert registry.publishes == 3

    def test_a_read_inside_a_window_stops_the_sweep_by_name(self):
        """The read folds the host's adds into the registry and empties
        ``pending``; a record taken after it would silently lack them."""
        internet, frame, _ = parent_state_world()
        production, oracle = engine_pair(internet, frame, _ReadingTransport)
        with pytest.raises(RecordWindowError, match=r"93\.184\.9\d\.\d+"):
            production.baseline(frame)
        # the snapshot diff has no such contract, and shows what the
        # record would have had to be: the ledger of an unread sweep
        unread = engine_pair(internet, frame)[0].baseline(frame)
        assert_same_ledger(unread, oracle.baseline(frame))

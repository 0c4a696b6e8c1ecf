"""The re-scan ledger across a churn sequence, and the state it saves.

Each step of the sequence re-scans a generated world after one kind of
churn and compares the tick with a plain sweep of the world as it now
is; the last step is killed after a save and resumed, so its ledger mixes
checkpoint-replayed, prior-replayed and freshly probed hosts.  Ledgers
are compared as ``json.dumps(state.to_dict())`` digests *without*
``sort_keys``: record order is part of what a state file's bytes are.
A baseline under chaos faults is checked against a plain sweep in the
same weather.
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
from tests.core.test_rescan import (
    _Crashing,
    parent_state_as_saved_now,
    parent_state_world,
)

SEED = 20210603
BATCHES = 4

#: every fault a sweep without a retry policy survives
WEATHER = FaultPlan(
    syn_loss=0.02, request_loss=0.05, reset_rate=0.03, slow_rate=0.05,
    truncate_rate=0.05, garble_rate=0.05,
)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def ledger(state) -> str:
    return sha256(json.dumps(state.to_dict()))


def digest(report) -> str:
    return sha256(json.dumps(report_to_dict(report), sort_keys=True))


def build_world():
    internet, _, _ = generate_internet(
        PopulationModel(awe_rate=0.0002, vuln_rate=0.2,
                        background_rate=1e-7, seed=11)
    )
    return internet, CompressedPopulation.build(internet, 0, seed=SEED)


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


class TestAChurnSequence:
    def test_every_step_equals_a_scratch_sweep(self, tmp_path):
        internet, pop = build_world()
        frame = pop.frame
        engine = RescanEngine(
            InMemoryTransport(internet), scanned_ports(), seed=SEED,
            batch_size=-(-len(frame) // BATCHES),
        )
        rng = random.Random(5)

        first = engine.baseline(frame)
        assert len(first.records) > 1000
        assert sum(1 for r in first.records.values() if r.finding) > 1000
        assert digest(first.report) == digest(scratch(engine, frame))

        # hosts removed: port-level churn, self-detected
        removed = [
            internet.host_at(IPv4Address(value))
            for value in rng.sample(sorted(first.records), 40)
        ]
        for host in removed:
            internet.remove_host(host.ip)
        gone = engine.rescan(frame, first)
        assert len(gone.records) == len(first.records) - 40
        assert digest(gone.report) == digest(scratch(engine, frame))

        for host in removed:
            internet.add_host(host)
        back = engine.rescan(frame, gone)
        assert digest(back.report) == digest(first.report)

        # content changed behind the same port, and the caller says where
        fixed, unannounced = rng.sample(internet.true_vulnerable_hosts(), 2)
        make_secure(fixed)
        hinted = engine.rescan(frame, back, [fixed.ip])
        assert fixed.ip.value not in {
            ip.value for ip in hinted.report.vulnerable_ips()
        }
        assert digest(hinted.report) == digest(scratch(engine, frame))

        # ... and nobody says: stage I cannot see it, the stale record replays
        make_secure(unannounced)
        stale = engine.rescan(frame, hinted)
        assert digest(stale.report) == digest(hinted.report)
        assert digest(stale.report) != digest(scratch(engine, frame))

        # a kill after the second save, resumed: checkpoint-replayed,
        # prior-replayed and freshly probed hosts in one ledger
        for host in removed[:15]:
            internet.remove_host(host.ip)
        path = tmp_path / "tick.ckpt"
        hint = [unannounced.ip]
        with pytest.raises(KeyboardInterrupt):
            engine.rescan(frame, stale, hint, checkpoint=_Crashing(path, 2))
        resumed = engine.rescan(frame, stale, hint, checkpoint=Checkpointer(path))
        assert digest(resumed.report) == digest(scratch(engine, frame))
        assert ledger(resumed) == ledger(engine.rescan(frame, stale, hint))


def test_churned_ticks_serialise_in_a_scratch_sweeps_order():
    """Five ticks at 2% host churn — a fresh seeded 2% removed, the last
    2% restored — each dumped *without* ``sort_keys`` like a plain sweep
    of the world as it then is: the findings list, the response tallies'
    key order and ``open_ports``' order are the sweep's, whether a host
    replayed or was probed."""
    internet, pop = build_world()
    frame = pop.frame
    engine = RescanEngine(
        InMemoryTransport(internet), scanned_ports(), seed=SEED,
        batch_size=-(-len(frame) // BATCHES),
    )
    state = engine.baseline(frame)
    rng = random.Random(7)
    removed = []
    for _ in range(5):
        for host in removed:
            internet.add_host(host)
        addresses = internet.populated_addresses()
        removed = [
            internet.host_at(ip)
            for ip in rng.sample(addresses, len(addresses) // 50)
        ]
        for host in removed:
            internet.remove_host(host.ip)
        state = engine.rescan(frame, state)
        assert sha256(json.dumps(report_to_dict(state.report))) == sha256(
            json.dumps(report_to_dict(scratch(engine, frame)))
        )


def test_a_chaos_baseline_records_what_a_plain_sweep_reports():
    """Faults are the transport's: a baseline under them reports what a
    plain sweep over the same weather does, and its ledger holds every
    response the report tallies, each where the host that gave it is."""
    internet, pop = build_world()
    frame = pop.frame
    batch_size = -(-len(frame) // BATCHES)

    def weather():
        return ChaosTransport(InMemoryTransport(internet), WEATHER, seed=11)

    recorded = RescanEngine(
        weather(), scanned_ports(), seed=SEED, batch_size=batch_size,
    ).baseline(frame)
    plain = ScanPipeline(
        weather(), scanned_ports(), seed=SEED, batch_size=batch_size,
    ).run(frame)
    assert digest(recorded.report) == digest(plain)
    assert set(recorded.records) == set(plain.port_scan.open_ports)

    tallies = {"http": {}, "https": {}}
    for record in recorded.records.values():
        for port, scheme in record.responses:
            tallies[scheme][port] = tallies[scheme].get(port, 0) + 1
    assert tallies == {"http": plain.http_responses, "https": plain.https_responses}
    # the weather cost some open hosts every answer they had
    assert any(not record.responses for record in recorded.records.values())
    assert {
        value for value, record in recorded.records.items() if record.finding
    } == set(plain.findings)


def test_a_fresh_baseline_saves_the_committed_state_byte_for_byte(tmp_path):
    """The fixture was written by commit 55661fa; a baseline taken today
    saves it as this commit saves a loaded copy of it."""
    _, frame, engine = parent_state_world()
    save_rescan_state(engine.baseline(frame), tmp_path / "fresh.json")
    assert (tmp_path / "fresh.json").read_bytes() == parent_state_as_saved_now()

"""Re-scan churn is judged per host, in that host's own batch.

A host replays its prior ledger record when stage I finds it with the
open ports it had and the caller has not hinted its /24; every other
host is probed.  Each test changes one thing in :func:`parent_state_world`
(eight hosts over three /24s), re-scans it against the committed state,
and checks which hosts were probed and that the tick equals a
from-scratch sweep.  A probed host's record is a new object; a replayed
one is the prior's own.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.apps.base import AppInstance
from repro.apps.catalog import create_instance, scanned_ports
from repro.core.checkpoint import Checkpointer
from repro.core.pipeline import ScanPipeline
from repro.core.rescan import load_rescan_state
from repro.net.host import Service
from repro.net.intervals import BLOCK_MASK
from repro.net.ipv4 import IPv4Address
from repro.util.errors import ConfigError
from tests.core.test_rescan import (
    PARENT_STATE,
    SEED,
    _Crashing,
    dump,
    parent_state_world,
)

#: a re-scan journal written by commit 8f4e4d6 — whose engine ran stage I
#: over the whole frame first and kept a journal of its own — killed
#: after its first save.  Regenerate (only ever from that commit) with
#: ``PYTHONPATH=src:. python tests/core/test_rescan_churn.py``.
PARENT_JOURNAL = Path(__file__).parent / "fixtures" / "rescan_journal_8f4e4d6.ckpt"

#: one of the three hosts in 93.184.91.0/24
HOST = IPv4Address.parse("93.184.91.24")


def tick(change, hint=()):
    """Re-scan after ``change(internet)``: (HTTP requests sent, values
    of the hosts probed rather than replayed)."""
    internet, frame, engine = parent_state_world()
    prior = load_rescan_state(PARENT_STATE)
    change(internet)
    state = engine.rescan(frame, prior, hint)
    requests = engine.transport.stats.http_requests
    scratch = ScanPipeline(
        engine.transport, scanned_ports(), seed=SEED, batch_size=200
    ).run(frame)
    assert dump(state.report) == dump(scratch)
    probed = {
        value for value, record in state.records.items()
        if record is not prior.records.get(value)
    }
    return requests, probed


def test_a_neighbours_port_change_replays_the_rest_of_its_block():
    requests, probed = tick(lambda internet: internet.remove_host(HOST))
    assert requests == 0
    assert probed == set()


def test_a_hinted_block_reprobes_every_one_of_its_hosts():
    internet, _, _ = parent_state_world()
    block = [
        ip.value for ip in internet.populated_addresses()
        if ip.value & BLOCK_MASK == HOST.value & BLOCK_MASK
    ]
    assert len(block) == 3
    requests, probed = tick(lambda _: None, hint=[HOST])
    assert requests > 0
    assert probed == set(block)


def open_another_port(internet, ip=HOST):
    internet.host_at(ip).add_service(Service(8500, app=AppInstance(
        create_instance("consul", vulnerable=True), 8500
    )))


def test_a_host_whose_ports_changed_is_probed():
    requests, probed = tick(open_another_port)
    assert requests > 0
    assert probed == {HOST.value}


def test_stage_i_counts_never_land_in_a_host_record(tmp_path):
    """A record holds a host's stage-II answers and whether it reached
    stage III, and no counts at all, not even for the batch's first host.
    The tick, whose first open host changed its ports, runs whole and
    killed after its first save, then resumed; both equal a sweep from
    scratch."""
    internet, frame, engine = parent_state_world()
    baseline = engine.baseline(frame)

    def scratch():
        return ScanPipeline(
            engine.transport, scanned_ports(), seed=SEED, batch_size=200
        )

    batches = list(scratch()._masscan.scan_in_batches(frame, 200))
    first = min(next(b.open_ports for b in batches if len(b.open_ports) > 1))
    open_another_port(internet, IPv4Address(first))
    expected = dump(scratch().run(frame))

    path = tmp_path / "tick.ckpt"
    with pytest.raises(KeyboardInterrupt):
        engine.rescan(frame, baseline, checkpoint=_Crashing(path, 1))
    ticks = [
        engine.rescan(frame, baseline),
        engine.rescan(frame, baseline, checkpoint=Checkpointer(path)),
    ]
    for state in (baseline, *ticks):
        assert {
            key for record in state.records.values() for key in record.to_dict()
        } == {"ip", "responses", "finding"}
    for state in ticks:
        assert state.records[first] is not baseline.records[first]
        assert dump(state.report) == expected


def test_a_journal_the_engines_own_loop_wrote_is_refused_untouched(tmp_path):
    """Its config keys all match a resume of the same tick, but it holds
    none of the sequential journal's sections.  It is a format-3 file, so
    its header refuses it before a record is read or anything is probed;
    were it rewritten in format 4, its ``journal=None`` tag would."""
    _, frame, engine = parent_state_world()
    path = tmp_path / "rescan.ckpt"
    shutil.copyfile(PARENT_JOURNAL, path)
    with pytest.raises(ConfigError, match="not a version-4 checkpoint journal"):
        engine.rescan(
            frame, load_rescan_state(PARENT_STATE), checkpoint=Checkpointer(path)
        )
    assert path.read_bytes() == PARENT_JOURNAL.read_bytes()
    assert engine.transport.stats.syn_probes == 0


def test_its_records_rewritten_in_the_current_format_are_refused_by_name(
    tmp_path,
):
    """The same records, each re-saved as a format-4 record: the header
    passes, and the ``journal`` tag, checked first, refuses them before
    anything is probed, not resumed into a ``KeyError``."""
    _, frame, engine = parent_state_world()
    path = tmp_path / "rescan.ckpt"
    journal = Checkpointer(path)
    for line in PARENT_JOURNAL.read_bytes().splitlines()[1:]:
        journal.save(json.loads(line.split(b" ", 1)[1]))
    rewritten = path.read_bytes()
    with pytest.raises(ConfigError, match="journal=None"):
        engine.rescan(
            frame, load_rescan_state(PARENT_STATE), checkpoint=Checkpointer(path)
        )
    assert path.read_bytes() == rewritten
    assert engine.transport.stats.syn_probes == 0


if __name__ == "__main__":
    PARENT_JOURNAL.unlink(missing_ok=True)
    _, frame_, engine_ = parent_state_world()
    try:
        engine_.rescan(
            frame_, load_rescan_state(PARENT_STATE),
            checkpoint=_Crashing(PARENT_JOURNAL, 1),
        )
    except KeyboardInterrupt:
        pass

"""What a sweep costs, in Python calls and requests: the cost-ledger rows.

Seconds depend on the machine and on whatever else it is running; how many
Python functions a sweep enters does not.  ``sys.setprofile`` counts every
entry (a generator's resume counts as one, a C builtin not at all), and
the count is divided by the open hosts the sweep saw.  Two rows, over one
small generated world:

* the re-scan tick, at the benchmark's 2% host churn: a change that brings
  back per-host bookkeeping — a transport call, a liveness query or a
  per-port host query per live host in stage I, a counter write per
  address, a summary merge, an address object or host-step call per
  replayed host, or a block plan per tick — fails here before it shows
  in any timing; a campaign makes one block plan, and a sweep from
  scratch its own;
* the dense sweep, a ``ScanPipeline`` run over the whole world: calls per
  open host, and the HTTP requests it sends, pinned as a ceiling — a
  stage III that asks a target a question already answered fails here;
* the same sweep as shards on one worker thread, counting the main thread
  only — the orchestration and the fold — so a fold that parses shard
  reports back out of text fails here;
* the same sweep under the benchmark's retry policy and weather: calls
  per open host, and the SYNs it sends pinned exactly — a stage I that
  walks its re-sends through the retry executor fails here;
* the same sweep in eight batches with a checkpoint save after each:
  the calls the saves add per open host — a save that builds a dict per
  finding or renders an address per host fails here.

Each budget is this design's reading with stated slack.
"""

import random
import sys

import pytest

from repro.apps.catalog import scanned_ports
from repro.core import masscan
from repro.core.checkpoint import Checkpointer
from repro.core.pipeline import ScanPipeline
from repro.core.rescan import RescanEngine
from repro.core.retry import RetryPolicy
from repro.net.chaos import ChaosTransport, FaultPlan
from repro.net.intervals import CompressedPopulation, IntervalSet
from repro.net.population import PopulationModel, generate_internet
from repro.net.transport import InMemoryTransport
from repro.util.clock import SimClock
from repro.util.rand import stable_hash

SEED = 20210603
CHURN = 0.02
TICKS = 3

#: Python calls per open host per tick.  Reads 6.22-6.49 (each of three
#: ticks, any hash seed) since a campaign makes one block plan for all
#: its sweeps, the replay rule runs in the batch step's one host loop
#: and a replayed host's verdict is carried from the prior's vulnerable
#: set, not re-read from its finding; 8.53-8.80 before (8.56-8.83, budget
#: 10.2, while the report kept a detections list) since stage I asks for
#: liveness once per sweep, plans an unchanged frame without cutting it,
#: and asks each live host one set intersection, and the sweep-complete
#: event reads the coverage ledger; 15.6-15.9 (budget 18.3) since the engine builds one knowledge
#: base for all its sweeps and the stage funnel writes prebuilt series
#: keys; 24.7-25.0 while every tick built its own knowledge base, since stage I
#: asks the transport once per batch — no address object, transport call
#: or host lookup call per live host; 29.6-29.9 while it asked host by
#: host, since the batch step
#: folds a replayed host's record in place.  The design before read
#: 34.7-35.1 (36.2-36.5 when its budget of 42.0 was set); the one before
#: that — a 12-call port probe and a counter write per live host, a
#: summary merge, a ``Scheme`` and a token per replayed host — 62.5-62.7.
#: Budget: the reading's top x 1.15, rounded up.
BUDGET = 7.5

#: Python calls per open host of a dense sweep.  Reads 132.2 (any hash
#: seed) since stage III reads the landing page stage II fetched and asks
#: each question once per target; 171.2 before; 133.0 since the detection
#: checks are table rows run by one interpreter (a ``check`` call per
#: step, a ``fold`` call per lower-cased or squeezed body); 126.9, from
#: 131.9, since stage I asks the transport once per batch; 125.2 since
#: the stage funnel writes prebuilt series keys; 118.2 since stage I
#: asks for liveness once per sweep and each live host one set
#: intersection (budget 146.0 before, from the 126.9 reading).  Budget:
#: the 118.2 reading x 1.15.
DENSE_BUDGET = 136.0
#: HTTP requests of that sweep (567 open hosts): 1,369 since, 1,955 before
DENSE_REQUESTS = 1369

#: Main-thread Python calls per open host of that sweep on one shard
#: worker thread.  Reads 8.41 (any hash seed; the wait for the pool
#: thread moves the last digits) since each telemetry pillar decodes the
#: shard's snapshot in place; 16.26-16.28 while the fold restored three
#: pillars into throwaway objects first, since shard reports reach the
#: fold as objects; 31.9 while the fold parsed each one back out of its
#: JSON form.  Budget: the reading's top x 1.15.
SHARDED_BUDGET = 9.7

#: the benchmark's ``sweep_retry`` policy, and weather it has to retry in
RETRY_POLICY = RetryPolicy(max_attempts=3, base_delay=0.5, max_delay=8.0)
RETRY_WEATHER = FaultPlan(request_loss=0.03, slow_rate=0.02)
#: Python calls per open host of the dense sweep under that policy and
#: weather.  Reads 407.5 since stage I re-sends SYNs without the retry
#: executor (408.5-408.8 while it did so host by host); 758.3 while every
#: port of a live host went through it, with a breaker check, a jitter
#: draw and a backoff before each re-send.  Budget: the 408.8 reading
#: x 1.15.
RETRY_BUDGET = 470.1
#: SYNs of that sweep: every attempt to every port, the dead included;
#: the same before and since
RETRY_SYNS = 5_279_598

#: checkpoint saves in the journalled sweep, one per batch
SAVES = 8
#: Python calls per open host that those saves add to the dense sweep
#: (the same eight batches without a journal).  Reads 4.37 (any hash
#: seed) since a save pickles finding rows; 10.95 while it built a dict
#: per finding and per observation and a dotted quad per host for
#: ``json.dumps``.  Budget: the reading x 1.15.
CHECKPOINT_BUDGET = 5.0


@pytest.fixture(scope="module")
def campaign():
    """A world of 573 hosts framed as every populated /24 (255 of 256
    framed addresses dead, as in the benchmark), and its recorded
    baseline."""
    internet, _, _ = generate_internet(PopulationModel(
        awe_rate=0.0002, vuln_rate=0.005, background_rate=2e-8, seed=SEED,
    ))
    frame = CompressedPopulation.build(internet, 0, seed=SEED).frame
    engine = RescanEngine(
        InMemoryTransport(internet), scanned_ports(), seed=SEED, batch_size=4096
    )
    return internet, frame, engine, engine.baseline(frame)


def count_calls(run):
    """``run()``'s result and the Python calls this thread made in it."""
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = run()
    finally:
        sys.setprofile(previous)
    return result, calls


def calls_per_open_host(campaign) -> list[float]:
    """One warm-up tick, then ``TICKS`` counted ones; before each, the
    previous tick's removed hosts come back and a fresh seeded 2% go."""
    internet, frame, engine, state = campaign
    rng = random.Random(stable_hash(SEED, "churn"))
    removed: list = []
    readings = []
    try:
        for _ in range(TICKS + 1):
            for host in removed:
                internet.add_host(host)
            addresses = internet.populated_addresses()
            sample = rng.sample(addresses, max(1, int(len(addresses) * CHURN)))
            removed = [internet.host_at(ip) for ip in sample]
            for ip in sample:
                internet.remove_host(ip)
            state, calls = count_calls(
                lambda state=state: engine.rescan(frame, state)
            )
            readings.append(calls / len(state.report.port_scan.open_ports))
    finally:
        for host in removed:
            internet.add_host(host)
    return readings[1:]


def test_a_tick_stays_within_its_call_budget(campaign):
    readings = calls_per_open_host(campaign)
    assert all(reading <= BUDGET for reading in readings), readings


@pytest.fixture
def plans(monkeypatch) -> list[str]:
    """What each block plan made while the test runs: its per-/24 counts
    (``IntervalSet.block_counts``) and its shuffle (``shuffled``)."""
    made: list[str] = []
    block_counts, shuffle = IntervalSet.block_counts, masscan.shuffled

    def counted_block_counts(frame):
        made.append("counts")
        return block_counts(frame)

    def counted_shuffle(rng, items):
        made.append("shuffle")
        return shuffle(rng, items)

    monkeypatch.setattr(IntervalSet, "block_counts", counted_block_counts)
    monkeypatch.setattr(masscan, "shuffled", counted_shuffle)
    return made


def baseline_and_ticks(campaign):
    internet, frame, engine, _ = campaign
    state = engine.baseline(frame)
    for _ in range(TICKS):
        state = engine.rescan(frame, state)
    return state


def test_a_campaign_makes_one_block_plan(campaign, plans):
    """The plan is a pure function of the frame and the seed, which a
    re-scan's prior pins: the baseline makes it, every tick reuses it."""
    state = baseline_and_ticks(campaign)
    assert plans == ["counts", "shuffle"]
    assert state.plan is not None


def test_a_sweep_from_scratch_still_makes_its_own_plan(campaign, plans):
    internet, frame, engine, _ = campaign
    state = baseline_and_ticks(campaign)
    report = ScanPipeline(
        InMemoryTransport(internet), scanned_ports(), seed=SEED,
        batch_size=4096, knowledge_base=engine.knowledge_base,
    ).run(frame)
    assert plans == ["counts", "shuffle"] * 2
    assert report.port_scan.open_ports == state.report.port_scan.open_ports


def test_a_dense_sweep_stays_within_its_call_and_request_budgets(campaign):
    """One warm-up sweep, then one counted."""
    internet, frame, _, _ = campaign
    for _ in range(2):
        transport = InMemoryTransport(internet)
        pipeline = ScanPipeline(
            transport, scanned_ports(), seed=SEED, batch_size=4096
        )
        report, calls = count_calls(lambda: pipeline.run(frame))
    reading = calls / len(report.port_scan.open_ports)
    assert reading <= DENSE_BUDGET, reading
    assert transport.stats.http_requests <= DENSE_REQUESTS


def test_a_sharded_sweep_folds_within_its_call_budget(campaign):
    """One warm-up sweep, then one counted; the shard runs on the pool
    thread, which the profile does not see."""
    internet, frame, _, _ = campaign
    for _ in range(2):
        pipeline = ScanPipeline(
            InMemoryTransport(internet), scanned_ports(), seed=SEED,
            batch_size=4096, workers=1, executor="thread",
        )
        report, calls = count_calls(lambda: pipeline.run(frame))
    reading = calls / len(report.port_scan.open_ports)
    assert reading <= SHARDED_BUDGET, reading


def test_a_retry_sweep_stays_within_its_call_budget_and_sends_the_same_syns(
    campaign,
):
    """One warm-up sweep, then one counted."""
    internet, frame, _, _ = campaign
    for _ in range(2):
        clock = SimClock()
        transport = ChaosTransport(
            InMemoryTransport(internet), RETRY_WEATHER, seed=SEED, clock=clock
        )
        pipeline = ScanPipeline(
            transport, scanned_ports(), seed=SEED, batch_size=4096,
            retry_policy=RETRY_POLICY, clock=clock,
        )
        report, calls = count_calls(lambda: pipeline.run(frame))
    reading = calls / len(report.port_scan.open_ports)
    assert reading <= RETRY_BUDGET, reading
    assert transport.stats.syn_probes == RETRY_SYNS


def test_checkpoint_saves_stay_within_their_call_budget(campaign, tmp_path):
    """Each arm once to warm up, then once counted.  A completed sweep
    clears its journal, so every journalled sweep makes all its saves."""
    internet, frame, _, _ = campaign

    def sweep(checkpoint):
        pipeline = ScanPipeline(
            InMemoryTransport(internet), scanned_ports(), seed=SEED,
            batch_size=-(-len(frame) // SAVES),
        )
        return count_calls(lambda: pipeline.run(frame, checkpoint=checkpoint))

    for _ in range(2):
        report, plain = sweep(None)
        _, journalled = sweep(Checkpointer(tmp_path / "sweep.ckpt"))
    reading = (journalled - plain) / len(report.port_scan.open_ports)
    assert reading <= CHECKPOINT_BUDGET, reading

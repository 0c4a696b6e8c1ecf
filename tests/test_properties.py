"""Property-based tests (hypothesis) on core invariants."""

import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.attacks import (
    cluster_attackers,
    group_attacks,
    unique_attacks,
)
from repro.attacker.actors import partition_heavy_tail
from repro.honeypot.monitor import AuditEvent
from repro.net.ipv4 import IPv4Address
from repro.util.clock import MINUTE, SimClock
from repro.util.rand import stable_hash

# ---------------------------------------------------------------------------
# Attack grouping invariants
# ---------------------------------------------------------------------------

_event_strategy = st.builds(
    AuditEvent,
    honeypot=st.sampled_from(["hadoop", "docker", "jupyterlab"]),
    timestamp=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    source_ip=st.integers(min_value=1, max_value=2**32 - 1).map(IPv4Address),
    command=st.just("cmd"),
    via=st.just("/x"),
    mechanism=st.just("m"),
    payload_fingerprint=st.integers(min_value=1, max_value=6),
)


@given(st.lists(_event_strategy, max_size=60))
def test_grouping_partitions_all_events(events):
    """Every audit event lands in exactly one attack."""
    attacks = group_attacks(events)
    assert sum(len(a.commands) for a in attacks) == len(events)


@given(st.lists(_event_strategy, max_size=60))
def test_groups_are_homogeneous(events):
    """An attack never mixes honeypots or source IPs."""
    for attack in group_attacks(events):
        assert attack.start <= attack.end
        # fingerprints non-empty, and all commands from one stream
        assert attack.fingerprints


@given(st.lists(_event_strategy, max_size=60))
def test_consecutive_commands_within_window(events):
    """Inside one attack, consecutive commands are <= 15 minutes apart."""
    by_group = group_attacks(events)
    for attack in by_group:
        own = sorted(
            e.timestamp
            for e in events
            if e.honeypot == attack.honeypot
            and e.source_ip.value == attack.source_ip
            and attack.start <= e.timestamp <= attack.end
        )
        for a, b in zip(own, own[1:]):
            assert b - a <= 15 * MINUTE + 1e-6


@given(st.lists(_event_strategy, max_size=60))
def test_unique_attacks_subset(events):
    attacks = group_attacks(events)
    uniq = unique_attacks(attacks)
    assert len(uniq) <= len(attacks)
    ids = {id(a) for a in attacks}
    assert all(id(a) in ids for a in uniq)


@given(st.lists(_event_strategy, max_size=60))
def test_unique_attacks_have_distinct_payload_sets(events):
    """No payload fingerprint appears in two unique attacks of one app."""
    seen: dict[str, set[int]] = {}
    for attack in unique_attacks(group_attacks(events)):
        already = seen.setdefault(attack.honeypot, set())
        assert not (attack.fingerprints & already)
        already.update(attack.fingerprints)


@given(st.lists(_event_strategy, max_size=60))
def test_clusters_partition_ips(events):
    """Attacker clusters never share an IP or a payload fingerprint."""
    clusters = cluster_attackers(group_attacks(events))
    all_ips: set[int] = set()
    all_fps: set[int] = set()
    for cluster in clusters:
        assert not (cluster.ips & all_ips)
        assert not (cluster.fingerprints & all_fps)
        all_ips |= cluster.ips
        all_fps |= cluster.fingerprints


@given(st.lists(_event_strategy, max_size=60))
def test_cluster_attack_counts_cover_all_attacks(events):
    attacks = group_attacks(events)
    clusters = cluster_attackers(attacks)
    assert sum(c.attack_count for c in clusters) == len(attacks)


# ---------------------------------------------------------------------------
# Heavy-tail partition
# ---------------------------------------------------------------------------

@given(
    st.integers(min_value=1, max_value=5000),
    st.integers(min_value=1, max_value=100),
    st.integers(min_value=0, max_value=2**32),
)
def test_partition_heavy_tail_properties(total, parts, seed):
    if total < parts:
        total = parts
    sizes = partition_heavy_tail(total, parts, random.Random(seed))
    assert sum(sizes) == total
    assert len(sizes) == parts
    assert min(sizes) >= 1


# ---------------------------------------------------------------------------
# Simulated clock
# ---------------------------------------------------------------------------

@given(st.lists(st.floats(min_value=0, max_value=1000, allow_nan=False), max_size=30))
def test_clock_fires_in_nondecreasing_time_order(delays):
    clock = SimClock()
    fired: list[float] = []
    for delay in delays:
        clock.schedule(delay, lambda: fired.append(clock.now))
    clock.run_all()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


# ---------------------------------------------------------------------------
# Stable hashing
# ---------------------------------------------------------------------------

@given(st.lists(st.text(max_size=30), min_size=1, max_size=5))
def test_stable_hash_is_pure(parts):
    assert stable_hash(*parts) == stable_hash(*parts)


@given(st.text(max_size=30), st.text(max_size=30))
def test_stable_hash_sensitivity(a, b):
    if a != b:
        assert stable_hash(a) != stable_hash(b)


# ---------------------------------------------------------------------------
# IPv4 round-trips under parsing/normalisation
# ---------------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_slash24_contains_address(value):
    address = IPv4Address(value)
    assert address in address.slash24
    assert address.slash24.size == 256


# ---------------------------------------------------------------------------
# Knowledge-base identification is stable under observation subsets
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False))
def test_kb_identifies_superset_consistently(rng):
    """If a full observation set identifies (slug, version), adding no
    new files (subsampling) never yields a *different* app."""
    from repro.apps.catalog import create_instance
    from repro.core.fingerprint.knowledge_base import (
        build_default_knowledge_base,
        file_hash,
    )

    kb = _KB_CACHE.setdefault("kb", build_default_knowledge_base())
    app = create_instance("wordpress", version="5.4")
    observations = {
        path: file_hash(content) for path, content in app.static_files().items()
    }
    full = kb.identify(observations)
    assert full == ("wordpress", "5.4")
    keys = sorted(observations)
    subset_keys = rng.sample(keys, k=rng.randint(1, len(keys)))
    subset = {k: observations[k] for k in subset_keys}
    result = kb.identify(subset)
    assert result is not None
    assert result[0] == "wordpress"


_KB_CACHE: dict[str, object] = {}


# ---------------------------------------------------------------------------
# Pickle round-trips of shard state
#
# The process executor ships every shard-state component across the
# pickle boundary (the ShardRunner into workers, a ShardResult back).
# A component is process-safe iff a pickled clone is *behaviourally*
# equivalent: the same subsequent inputs must produce the same subsequent
# outputs and serialised state as the original.
# ---------------------------------------------------------------------------


def _clone(obj):
    return pickle.loads(pickle.dumps(obj))


@given(
    st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), max_size=10),
    st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), max_size=10),
)
def test_simclock_pickle_round_trip(before, after):
    clock = SimClock()
    for delta in before:
        clock.advance(delta)
    twin = _clone(clock)
    assert twin.now == clock.now
    for delta in after:
        clock.advance(delta)
        twin.advance(delta)
    assert twin.now == clock.now


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=50))
def test_seeded_rng_pickle_round_trip(seed, draws):
    rng = random.Random(stable_hash(seed, "shard", 3))
    for _ in range(draws):
        rng.random()
    twin = _clone(rng)
    assert [twin.random() for _ in range(20)] == [rng.random() for _ in range(20)]
    assert twin.getstate() == rng.getstate()


@given(
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=8),
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=8),
)
@settings(max_examples=30, deadline=None)
def test_retry_executor_pickle_round_trip(before_failures, after_failures):
    """Drive a pickled executor clone with the failure script the
    original sees; stats, breaker verdicts, and backoff draws must not
    diverge."""
    from repro.core.retry import CircuitBreaker, RetryExecutor, RetryPolicy
    from repro.util.errors import ConnectionTimeout, TransportError

    def build():
        clock = SimClock()
        return RetryExecutor(
            RetryPolicy(max_attempts=3, base_delay=0.5, max_delay=4.0),
            rng=random.Random(stable_hash(7, "retry")),
            clock=clock,
            breaker=CircuitBreaker(clock=clock),
        )

    def drive(executor, failures):
        outcomes = []
        for host, count in enumerate(failures):
            ip = IPv4Address.parse(f"198.51.{100 + host}.7")
            remaining = [count]

            def op():
                if remaining[0] > 0:
                    remaining[0] -= 1
                    raise ConnectionTimeout("injected")
                return "ok"

            try:
                outcomes.append(executor.call(ip, op))
            except TransportError as exc:
                outcomes.append(type(exc).__name__)
        return outcomes

    executor = build()
    drive(executor, before_failures)
    twin = _clone(executor)
    assert drive(twin, after_failures) == drive(executor, after_failures)
    assert twin.stats.to_dict() == executor.stats.to_dict()


@given(
    st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=20),
    st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=20),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
)
def test_quarantine_pickle_round_trip(before, after, host_threshold, block_threshold):
    from repro.core.supervisor import Quarantine

    ledger = Quarantine(host_threshold, block_threshold)
    for value in before:
        ledger.strike(value)
    twin = _clone(ledger)
    assert twin.hosts == ledger.hosts and twin.blocks == ledger.blocks
    for value in after:
        assert twin.is_quarantined(value) == ledger.is_quarantined(value)
        assert twin.strike(value) == ledger.strike(value)
    assert twin.hosts == ledger.hosts and twin.blocks == ledger.blocks


@given(
    st.lists(st.sampled_from(["debug", "info", "warn", "error"]), max_size=15),
    st.lists(st.sampled_from(["debug", "info", "warn", "error"]), max_size=15),
)
def test_event_log_pickle_round_trip(before, after):
    from repro.obs.events import EventLog

    log = EventLog(clock=SimClock())
    for index, level in enumerate(before):
        log.clock.advance(1.0)
        log.emit(level, "stage", f"event-{index}", host=None, n=index)
    twin = _clone(log)
    for index, level in enumerate(after):
        for target in (log, twin):
            target.clock.advance(1.0)
            target.emit(level, "stage", f"late-{index}", host=None, n=index)
    assert twin.to_jsonl() == log.to_jsonl()
    assert twin.suppressed == log.suppressed
    assert twin.snapshot_state() == log.snapshot_state()


@given(
    st.lists(st.floats(min_value=0, max_value=120, allow_nan=False), max_size=15),
    st.lists(st.floats(min_value=0, max_value=120, allow_nan=False), max_size=15),
)
def test_metrics_registry_pickle_round_trip(before, after):
    from repro.obs.metrics import MetricsRegistry

    from repro.obs.metrics import series_key

    def feed(registry, values):
        for value in values:
            registry.counter("probes_total", stage="masscan").inc()
            registry.counter("backoff_seconds_total").inc(value)
            registry.observed[series_key("latency_seconds")].append(value)

    registry = MetricsRegistry()
    feed(registry, before)
    twin = _clone(registry)
    feed(registry, after)
    feed(twin, after)
    assert twin.snapshot_state() == registry.snapshot_state()
    assert twin.to_prometheus() == registry.to_prometheus()


@given(
    st.lists(st.floats(min_value=0, max_value=600, allow_nan=False), max_size=30),
    st.lists(st.floats(min_value=0, max_value=600, allow_nan=False), max_size=30),
)
def test_flight_recorder_pickle_round_trip(before, after):
    from repro.obs.flight import FlightRecorder

    def feed(recorder, durations, base):
        for index, duration in enumerate(durations):
            recorder.record_probe(
                "probe:http", f"203.0.113.{index % 200}", 80,
                float(base + index), duration, {},
                events=(), exchange_mark=recorder.exchange_mark(),
            )

    recorder = FlightRecorder(capacity=4)
    feed(recorder, before, base=0)
    twin = _clone(recorder)
    feed(recorder, after, base=1000)
    feed(twin, after, base=1000)
    assert twin.probes_seen == recorder.probes_seen
    assert twin.snapshot_state() == recorder.snapshot_state()


_amounts = st.one_of(
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=0, max_value=1e6, allow_nan=False),
)


@given(
    counters=st.lists(
        st.tuples(st.sampled_from(["a_total", "b_total"]),
                  st.sampled_from(["x", "y", 3]), _amounts),
        max_size=12,
    ),
    observations=st.lists(
        st.tuples(st.sampled_from(["lat", "wait"]),
                  st.floats(min_value=0, max_value=4000, allow_nan=False)),
        max_size=12,
    ),
    events=st.lists(st.sampled_from(["debug", "info", "warn", "error"]), max_size=8),
    spans=st.lists(st.booleans(), max_size=10),
    probes=st.lists(st.floats(min_value=0, max_value=60, allow_nan=False), max_size=24),
)
def test_a_snapshot_decodes_to_the_same_exports(
    counters, observations, events, spans, probes
):
    """``absorb_state(snapshot_state())`` into an empty handle reproduces
    the JSONL and Prometheus exports and the flight dump, and a restore
    equals it; open spans are refused by the fold, and a restore reopens
    them so the sweep ends with the same record."""
    from repro.obs.metrics import series_key
    from repro.obs.telemetry import Telemetry

    clock = SimClock()
    telemetry = Telemetry(clock=clock)
    for name, label, amount in counters:
        telemetry.metrics.counter(name, kind=label).inc(amount)
    for name, value in observations:
        telemetry.metrics.observed[series_key(name)].append(value)
    for index, level in enumerate(events):
        clock.advance(0.5)
        telemetry.events.emit(level, "stage", f"event-{index}", n=index)
    for index, close in enumerate(spans):  # True closes the innermost span
        clock.advance(1.0)
        if close and telemetry.tracer.active is not None:
            telemetry.tracer.end()
        else:
            telemetry.tracer.start(f"span-{index}", index=index)
    for index, duration in enumerate(probes):
        telemetry.flight.record_probe(
            "probe:http", f"203.0.113.{index % 7}", 80, float(index),
            duration, {}, (), telemetry.flight.exchange_mark(),
        )

    def exports(handle):
        return (
            handle.export_jsonl(),
            handle.export_prometheus(),
            handle.flight.snapshot_state(),
            handle.events.suppressed,
        )

    state = telemetry.snapshot_state()
    restored = Telemetry(clock=clock)
    restored.restore_state(state)
    assert exports(restored) == exports(telemetry)
    folded = Telemetry(clock=clock)
    if telemetry.tracer.depth:
        with pytest.raises(ValueError, match="open spans"):
            folded.tracer.absorb_state(state["tracer"])
        for handle in (telemetry, restored):
            while handle.tracer.active is not None:
                handle.tracer.end()
        assert exports(restored) == exports(telemetry)
    else:
        folded.absorb_state(state)
        assert exports(folded) == exports(telemetry)
        assert folded.snapshot_state() == restored.snapshot_state()


# ---------------------------------------------------------------------------
# Interval algebra vs a set-of-ints oracle
# ---------------------------------------------------------------------------

_interval_run = st.integers(min_value=0, max_value=4000).flatmap(
    lambda start: st.tuples(
        st.just(start), st.integers(min_value=start, max_value=start + 600)
    )
)
_interval_set = st.lists(_interval_run, max_size=8)


def _oracle(runs) -> set[int]:
    values: set[int] = set()
    for start, end in runs:
        values.update(range(start, end + 1))
    return values


@given(_interval_set)
def test_interval_normalisation_preserves_membership(runs):
    """Merging and sorting runs never changes the member set."""
    from repro.net.intervals import IntervalSet

    s = IntervalSet(runs)
    oracle = _oracle(runs)
    assert set(s.iter_values()) == oracle
    assert len(s) == len(oracle)
    # Canonical form: sorted, disjoint, non-adjacent.
    for (_, prev_end), (next_start, _) in zip(s.runs, s.runs[1:]):
        assert next_start > prev_end + 1


@given(_interval_set, _interval_set)
def test_interval_algebra_matches_set_algebra(a_runs, b_runs):
    """union/intersect/difference agree with Python set semantics."""
    from repro.net.intervals import IntervalSet

    a, b = IntervalSet(a_runs), IntervalSet(b_runs)
    a_oracle, b_oracle = _oracle(a_runs), _oracle(b_runs)
    assert set(a.union(b).iter_values()) == a_oracle | b_oracle
    assert set(a.intersect(b).iter_values()) == a_oracle & b_oracle
    assert set(a.difference(b).iter_values()) == a_oracle - b_oracle


@given(_interval_set, _interval_set)
def test_interval_difference_is_the_walk_or_the_set_itself(a_runs, b_runs):
    """The difference is the compressed set difference of the members,
    and it is ``a`` itself exactly when no run of ``a`` meets a hole."""
    from repro.net.intervals import IntervalSet

    a, b = IntervalSet(a_runs), IntervalSet(b_runs)
    a_oracle, b_oracle = _oracle(a_runs), _oracle(b_runs)
    cut = a.difference(b)
    assert cut == IntervalSet.from_values(a_oracle - b_oracle)
    assert (cut is a) == (not a_oracle & b_oracle)


@given(_interval_set)
def test_interval_block_counts_survive_a_pickle_round_trip(runs):
    """A pickle carries the runs alone; the clone's block plan is the
    original's."""
    from repro.net.intervals import IntervalSet

    frame = IntervalSet(runs)
    assert _clone(frame).block_counts() == frame.block_counts()


@given(_interval_set, st.integers(min_value=0, max_value=5000))
def test_interval_membership_matches_oracle(runs, probe):
    from repro.net.intervals import IntervalSet

    assert (probe in IntervalSet(runs)) == (probe in _oracle(runs))


@given(
    _interval_set,
    st.integers(min_value=0, max_value=5000),
    st.integers(min_value=0, max_value=1200),
)
def test_interval_range_queries_match_oracle(runs, start, width):
    from repro.net.intervals import IntervalSet

    s = IntervalSet(runs)
    end = start + width
    expected = sorted(v for v in _oracle(runs) if start <= v <= end)
    assert s.values_in(start, end) == expected
    assert s.count_in(start, end) == len(expected)
    assert s.clip(start, end) == s.intersect(IntervalSet([(start, end)]))


@given(_interval_set)
def test_interval_block_views_match_oracle(runs):
    """block_bases/block_values/block_counts agree with the member set."""
    from repro.net.intervals import BLOCK_MASK, IntervalSet

    s = IntervalSet(runs)
    oracle = _oracle(runs)
    bases = sorted({value & BLOCK_MASK for value in oracle})
    assert s.block_bases() == bases
    counts = s.block_counts()
    assert list(counts) == bases
    for base in bases:
        members = sorted(v for v in oracle if v & BLOCK_MASK == base)
        assert s.block_values(base) == members
        assert counts[base] == len(members)


@given(_interval_set, st.integers(min_value=1, max_value=6))
def test_shards_partition_the_frame(runs, shard_blocks):
    """Each shard is the frame cut to its blocks' covering range, and
    together the shards are the frame: nothing lost, nothing twice."""
    from repro.core.parallel import plan_shards
    from repro.net.intervals import BLOCK_SIZE, IntervalSet

    frame = IntervalSet(runs)
    shards = plan_shards(
        frame, seed=1, shard_blocks=shard_blocks, exclude_reserved=False
    )
    bases = frame.block_bases()
    for shard in shards:
        group = bases[shard.index * shard_blocks:][:shard_blocks]
        assert shard.addresses.block_bases() == group
        assert shard.addresses == frame.intersect(
            IntervalSet([(group[0], group[-1] + BLOCK_SIZE - 1)])
        )
    assert sum(len(shard.addresses) for shard in shards) == len(frame)
    assert IntervalSet(
        run for shard in shards for run in shard.addresses.runs
    ) == frame


# No deadline: the 10**7 example clones 9,766 shards, 0.16-0.26 s on the
# 2-vCPU sandbox, either side of hypothesis's default 0.2 s.
@settings(deadline=None)
@given(_interval_set)
@example([])
@example([(5, 5)])
@example([(0, 10**7)])
def test_interval_set_pickles_as_its_runs(runs):
    """The frame is what has a compact form, so it pickles as its runs
    and whatever holds one — a planned shard — crosses the process
    boundary compactly without a ``__reduce__`` of its own."""
    from repro.core.parallel import plan_shards
    from repro.net.intervals import IntervalSet

    s = IntervalSet(runs)
    clone = _clone(s)
    assert clone == s
    assert hash(clone) == hash(s)
    assert len(clone) == len(s)
    # bytes grow with the runs, never with the addresses they cover
    assert len(pickle.dumps(s)) < 80 + 20 * len(s.runs)
    for shard in plan_shards(s, seed=7, shard_blocks=4, exclude_reserved=False):
        twin = _clone(shard)
        assert (twin.index, twin.seed) == (shard.index, shard.seed)
        assert twin.addresses == shard.addresses


def _report_values():
    """The five value types a shard's report is made of."""
    from repro.core.fingerprint.fingerprinter import Fingerprint, FingerprintMethod
    from repro.core.pipeline import AppObservation, HostFinding
    from repro.core.tsunami.plugin import DetectionReport
    from repro.net.http import Scheme

    ip = st.integers(min_value=0, max_value=2**32 - 1).map(IPv4Address)
    text = st.text(max_size=12)
    port = st.integers(min_value=0, max_value=65535)
    scheme = st.sampled_from(Scheme)
    fingerprint = st.builds(
        Fingerprint, text, text, st.sampled_from(FingerprintMethod)
    )
    detection = st.builds(DetectionReport, ip, port, scheme, text, text, text)
    observation = st.builds(
        AppObservation, ip, text, port, scheme, st.booleans(),
        st.none() | detection, st.none() | fingerprint,
    )
    finding = st.builds(
        HostFinding, ip, st.dictionaries(text, observation, max_size=3)
    )
    return st.one_of(ip, fingerprint, detection, observation, finding)


@given(_report_values())
def test_report_values_pickle_as_their_constructor_call(value):
    """What a process worker sends back is built of these: each pickles as
    a call of its class on its fields, and comes back equal, hashing
    equal where it hashes, and frozen where it was frozen."""
    from dataclasses import FrozenInstanceError, fields

    cls, args = value.__reduce__()
    assert cls is type(value)
    assert args == tuple(getattr(value, f.name) for f in fields(value))
    clone = _clone(value)
    assert type(clone) is type(value)
    assert clone == value
    if cls.__hash__ is not None:
        assert hash(clone) == hash(value)
    name = fields(value)[0].name
    if cls.__dataclass_params__.frozen:
        with pytest.raises(FrozenInstanceError):
            setattr(clone, name, getattr(value, name))
    else:
        setattr(clone, name, getattr(value, name))


@given(_interval_set, st.integers(min_value=0, max_value=3000))
def test_interval_take_is_lowest_prefix(runs, count):
    from repro.net.intervals import IntervalSet

    s = IntervalSet(runs)
    taken = set(s.take(count).iter_values())
    expected = set(sorted(_oracle(runs))[:count])
    assert taken == expected


@given(_interval_set)
def test_interval_serialisation_round_trip(runs):
    from repro.net.intervals import IntervalSet

    s = IntervalSet(runs)
    assert IntervalSet.from_dict(s.to_dict()) == s
    assert IntervalSet.from_values(s.iter_values()) == s


# ---------------------------------------------------------------------------
# Content-addressed stage-II matching
#
# ``match_signatures`` is memoised by body text behind a bounded LRU.  It
# must stay extensionally equal to the one-regex-at-a-time reference on
# every path through the cache: miss, hit, re-entry after eviction, and
# after a clear.
# ---------------------------------------------------------------------------


def _salted_corpus_pages(salts: int) -> list[str]:
    if "pages" not in _KB_CACHE:
        from tests.core.corpus import build_corpus

        _KB_CACHE["pages"] = sorted({
            body for pages in build_corpus().values() for body in pages.values()
        })
    return [
        f"{page}<!-- {salt} -->"
        for salt in range(salts) for page in _KB_CACHE["pages"]
    ]


@settings(max_examples=15, deadline=None)
@given(
    st.lists(st.text(max_size=60), max_size=10),
    st.randoms(use_true_random=False),
)
def test_memoised_match_signatures_equals_naive_through_eviction(extra, rng):
    from repro.core.prefilter import MATCH_CACHE_SIZE, match_signatures
    from tests.core.reference_matcher import match_signatures_naive

    pool = _salted_corpus_pages(salts=6) + extra
    assert len(set(pool)) > MATCH_CACHE_SIZE  # more bodies than the cache holds
    # every body once, half of them again: revisits land on hits or on
    # entries the intervening bodies evicted, depending on the shuffle
    order = pool + rng.sample(pool, k=len(pool) // 2)
    rng.shuffle(order)
    for body in order:
        assert match_signatures(body) == match_signatures_naive(body)
    assert match_signatures.cache_info().currsize == MATCH_CACHE_SIZE

    match_signatures.cache_clear()
    assert match_signatures.cache_info().currsize == 0
    for body in rng.sample(pool, k=25):
        assert match_signatures(body) == match_signatures_naive(body)


# ---------------------------------------------------------------------------
# Sparse address map: the sorted key list survives churn
# ---------------------------------------------------------------------------

_churn_steps = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove", "query"]),
        st.integers(min_value=0, max_value=64),
        st.integers(min_value=0, max_value=64),
    ),
    max_size=60,
)


@given(_churn_steps)
def test_populated_values_in_equals_a_sorted_filter_after_any_churn(steps):
    """Adds and removes between queries keep the sorted key list current:
    every query equals the sorted, filtered oracle of the hosts present."""
    from repro.net.host import Host
    from repro.net.network import SimulatedInternet

    internet, present = SimulatedInternet(), set()
    for op, value, other in steps:
        if op == "add":
            if value in present:
                with pytest.raises(ValueError):
                    internet.add_host(Host(IPv4Address(value)))
            else:
                internet.add_host(Host(IPv4Address(value)))
                present.add(value)
        elif op == "remove":
            internet.remove_host(IPv4Address(value))
            present.discard(value)
        else:
            start, end = min(value, other), max(value, other)
            assert internet.populated_values_in(start, end) == sorted(
                v for v in present if start <= v <= end
            )
    assert internet.populated_values_in(0, 64) == sorted(present)

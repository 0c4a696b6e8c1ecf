"""Rows equal the eager tracer.

The finished-span record is rows and the per-host spans are recorded by
one call at their end (``repro.obs.trace``).  ``reference_tracer.py``
keeps the tracer that built an object per span; here random programs —
nested spans whose attrs are filled in while they are open, leaf spans,
exceptions escaping either kind, clock advances, the wall clock armed or
not — run against both, and every reader must see the same thing: the
span views, the JSONL export, the profile rollup, a journal of growth
snapshots folded and restored (and resumed on), and shard folds over any
grouping.

Then the pins that make the row record worth having: whatever scales
with hosts constructs no ``Span``.
"""

import itertools
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.catalog import scanned_ports
from repro.core.fingerprint.knowledge_base import build_default_knowledge_base
from repro.core.parallel import ShardRunner, plan_shards
from repro.core.pipeline import ScanPipeline
from repro.net.ipv4 import IPv4Address
from repro.net.transport import InMemoryTransport
from repro.obs.profile import ProfileRollup
from repro.obs.telemetry import Telemetry
from repro.obs.trace import Tracer
from repro.util.clock import SimClock
from tests.core.test_parallel import build_world
from tests.obs import reference_tracer as reference


class Boom(Exception):
    """Raised by a program; escapes spans until one catches it."""


# -- programs ----------------------------------------------------------------

span_names = st.sampled_from(["batch", "stage:prefilter", "stage:tsunami"])
leaf_names = st.sampled_from(["probe:jenkins", "probe:docker", "stage:fingerprint"])
advances = st.sampled_from([0.0, 0.0, 0.25, 1.0, 7.5])
attr_values = st.one_of(
    st.integers(-3, 3), st.booleans(), st.none(), st.sampled_from(["", "mav", "é"]),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
)
attrs = st.dictionaries(st.sampled_from(["hosts", "index", "note"]), attr_values)
#: dotted quads whose string order is not their numeric order, the two
#: ends of the space, and anything else
hosts = st.one_of(
    st.sampled_from([0, 2**32 - 1, 0x09FFFFFF, 0x0A000009, 0x0A00000A, 0x64000001]),
    st.integers(0, 2**32 - 1),
)

leaves = st.tuples(
    st.just("leaf"), leaf_names,
    st.one_of(st.none(), st.tuples(hosts, st.sampled_from([80, 443, 8080]))),
    st.sampled_from([None, "clean", "detected"]),
    advances,
    st.booleans(),  # the body raises
)
#: start a span, never end it, raise: the enclosing scope must unwind it
crashes = st.tuples(st.just("crash"), span_names)
raises = st.tuples(st.just("raise"))


def scopes(children):
    return st.tuples(
        st.just("span"), span_names, attrs,
        st.lists(st.tuples(st.sampled_from(["hosts", "addresses"]), attr_values), max_size=2),
        st.lists(children, max_size=4),
        advances,
        st.booleans(),  # catches a Boom escaping its body
    )


programs = st.recursive(leaves | crashes | raises, scopes, max_leaves=10)


class Kit:
    """A tracer, its clock, and how a per-host span is recorded on it."""

    def __init__(self, tracer_type, wall: bool) -> None:
        self.clock = SimClock()
        self.tracer = tracer_type(clock=self.clock)
        self.ticks = itertools.count()
        if wall:
            self.arm()

    def arm(self) -> None:
        self.tracer.wall_clock = lambda: float(next(self.ticks))

    def run(self, node) -> None:
        kind = node[0]
        if kind == "leaf":
            self.leaf(*node[1:])
        elif kind == "raise":
            raise Boom
        elif kind == "crash":
            self.tracer.start(node[1])
            raise Boom
        else:
            _, name, given_attrs, sets, children, advance, catches = node
            try:
                with self.tracer.span(name, **given_attrs) as span:
                    for child in children:
                        self.run(child)
                    self.clock.advance(advance)
                    for key, value in sets:
                        span.attrs[key] = value
            except Boom:
                if not catches:
                    raise

    def run_to_the_top(self, node) -> None:
        try:
            self.run(node)
        except Boom:
            pass


class EagerKit(Kit):
    def __init__(self, wall: bool) -> None:
        super().__init__(reference.Tracer, wall)

    def leaf(self, name, target, verdict, advance, raises) -> None:
        given_attrs = {}
        if target is not None:
            given_attrs = {"host": str(IPv4Address(target[0])), "port": target[1]}
        with self.tracer.span(name, **given_attrs) as span:
            self.clock.advance(advance)
            if raises:
                raise Boom
            if verdict is not None:
                span.attrs["verdict"] = verdict


class RowKit(Kit):
    def __init__(self, wall: bool) -> None:
        super().__init__(Tracer, wall)

    def leaf(self, name, target, verdict, advance, raises) -> None:
        host, port = target if target is not None else (None, None)
        opened = self.tracer.leaf_start()
        given_attrs = None
        try:
            self.clock.advance(advance)
            if raises:
                raise Boom
            if verdict is not None:
                given_attrs = {"verdict": verdict}
        finally:
            self.tracer.leaf(name, opened, host, port, given_attrs)


def canonical(span) -> dict:
    return span.to_dict()


def with_wall(span) -> tuple:
    stamped = span.wall_start is not None and span.wall_end is not None
    return span.to_dict(), (span.wall_start, span.wall_end) if stamped else None


def assert_same_record(eager, rows, view=with_wall) -> None:
    assert [view(s) for s in rows.finished] == [view(s) for s in eager.finished]
    assert [canonical(s) for s in rows._stack] == [canonical(s) for s in eager._stack]
    assert rows._next_id == eager._next_id
    assert rows.finished_count == len(eager.finished)


def through_json(state: dict) -> dict:
    return json.loads(json.dumps(state))


class TestRowsEqualTheEagerTracer:
    @settings(max_examples=300, deadline=None)
    @given(
        batches=st.lists(programs, max_size=5),
        wall=st.booleans(),
        saves=st.sets(st.integers(0, 4)),
        resumes=st.sets(st.integers(0, 4)),
    )
    def test_a_sweep_with_a_journal(self, batches, wall, saves, resumes):
        """The pipeline's shape: an unscoped ``sweep`` span, a program per
        batch, a growth snapshot after some batches, a resume on the
        restored tracer after some saves, the sweep's attrs at its end."""
        eager, rows = EagerKit(wall), RowKit(wall)
        for kit in (eager, rows):
            kit.tracer.start("sweep")
        journal, mark = [], 0
        for index, batch in enumerate(batches):
            for kit in (eager, rows):
                kit.run_to_the_top(batch)
            assert_same_record(eager.tracer, rows.tracer)
            if index not in saves:
                continue
            growth = through_json(rows.tracer.snapshot_state(mark))
            journal.extend(growth["finished"])
            mark = rows.tracer.finished_count
            restored = Tracer(clock=rows.clock)
            restored.restore_state({**growth, "finished": list(journal)})
            assert_same_record(eager.tracer, restored, view=canonical)
            assert restored.snapshot_state() == rows.tracer.snapshot_state()
            if index in resumes:
                rows.tracer = restored
                whole = through_json(eager.tracer.snapshot_state())
                eager.tracer = reference.Tracer(clock=eager.clock)
                eager.tracer.restore_state(whole)
                if wall:
                    eager.arm()
                    rows.arm()
        for kit in (eager, rows):
            sweep = kit.tracer.active
            sweep.attrs["batches"] = len(batches)
            kit.clock.advance(1.0)
            kit.tracer.end(sweep)
        assert_same_record(eager.tracer, rows.tracer)

        telemetry = Telemetry(clock=rows.clock)
        telemetry.tracer = rows.tracer
        assert telemetry.export_jsonl() == reference.export_spans(eager.tracer)

        expected = reference.rollup(eager.tracer.finished)
        for rollup in (
            ProfileRollup.from_rows(rows.tracer.finished.rows),
            ProfileRollup.from_spans(rows.tracer.finished),
        ):
            assert rollup.to_dict() == expected.to_dict()
            assert rollup.wall_to_dict() == expected.wall_to_dict()

    @settings(max_examples=150, deadline=None)
    @given(
        shards=st.lists(programs, min_size=1, max_size=5),
        cuts=st.sets(st.integers(1, 4)),
        wall=st.booleans(),
    )
    def test_a_fold_over_any_grouping(self, shards, cuts, wall):
        """Shard records folded flat, in order, by the eager tracer; by
        the row tracer in consecutive groups, each folded first into a
        tracer of its own from the snapshot a worker returns, then on
        from that tracer's snapshot.  Same ids, same links, same record."""
        pairs = []
        for shard in shards:
            eager, rows = EagerKit(wall), RowKit(wall)
            for kit in (eager, rows):
                kit.tracer.start("sweep")
                kit.run_to_the_top(shard)
                while kit.tracer.active is not None:
                    kit.tracer.end()
            pairs.append((eager.tracer, rows.tracer))

        flat = reference.Tracer()
        with flat.span("parent"):
            pass
        for eager_tracer, _ in pairs:
            flat.fold(eager_tracer)

        folded = Tracer()
        with folded.span("parent"):
            pass
        bounds = sorted({c for c in cuts if c < len(pairs)} | {0, len(pairs)})
        for low, high in zip(bounds, bounds[1:]):
            group = Tracer()
            for _, row_tracer in pairs[low:high]:
                group.absorb_state(through_json(row_tracer.snapshot_state()))
            folded.absorb_state(group.snapshot_state())
        assert_same_record(flat, folded, view=canonical)


# -- what scales with hosts builds no Span --------------------------------------


def dense_pipeline(**overrides):
    internet, ips = build_world()
    pipeline = ScanPipeline(
        InMemoryTransport(internet), scanned_ports(), seed=7, batch_size=16,
        **overrides,
    )
    return pipeline, ips


class TestNoSpanPerHost:
    def test_a_sweep_builds_a_span_per_cold_span_and_no_more(self, spans_built):
        pipeline, ips = dense_pipeline(profile=True)
        report = pipeline.run(ips)
        tracer = pipeline.telemetry.tracer
        per_host = [
            row for row in tracer.finished.rows
            if row[2].startswith("probe:") or row[2] == "stage:fingerprint"
        ]
        assert len(per_host) >= 2 * len(report.findings) > 0
        # exactly the spans somebody holds open: not one per probe, not
        # one per fingerprint, none for the profiled run's own rollup
        assert len(spans_built) == tracer.finished_count - len(per_host)
        assert not {"stage:fingerprint"} & set(spans_built)
        assert not any(name.startswith("probe:") for name in spans_built)
        assert pipeline.wall_profile.armed

    def test_exports_and_snapshots_build_none(self, spans_built):
        pipeline, ips = dense_pipeline()
        pipeline.run(ips)
        del spans_built[:]
        telemetry = pipeline.telemetry
        telemetry.export_jsonl()
        state = through_json(telemetry.snapshot_state())
        ProfileRollup.from_spans(telemetry.tracer.finished)
        assert len(telemetry.tracer.finished) == telemetry.tracer.finished_count
        assert spans_built == []
        Telemetry().restore_state(state)  # nothing was open: rows only
        assert spans_built == []

    def test_a_shard_fold_builds_none(self, spans_built):
        internet, ips = build_world()
        runner = ShardRunner(
            transport=InMemoryTransport(internet), ports=scanned_ports(),
            batch_size=16, fingerprint=True, use_prefilter=True,
            knowledge_base=build_default_knowledge_base(),
            retry_policy=None, profile=False,
        )
        payloads = [
            through_json(runner.run(shard))
            for shard in plan_shards(ips, seed=7, shard_blocks=2)
        ]
        assert len(payloads) > 1
        del spans_built[:]
        parent = Telemetry()
        for payload in payloads:
            parent.absorb_state(payload["telemetry"])
            ProfileRollup.from_rows(payload["telemetry"]["tracer"]["finished"])
        assert spans_built == []
        assert parent.tracer.finished_count == sum(
            len(p["telemetry"]["tracer"]["finished"]) for p in payloads
        )

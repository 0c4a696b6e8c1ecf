"""Tests for the stage-I port scanner."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.base import AppInstance
from repro.apps.catalog import create_instance
from repro.core.masscan import Masscan, PortScanResult, burst_profile
from repro.net.host import Host, Service
from repro.net.chaos import ChaosTransport, FaultPlan
from repro.net.intervals import IntervalSet
from repro.net.ipv4 import IPv4Address
from repro.net.network import SimulatedInternet
from repro.net.transport import InMemoryTransport


#: every shape a caller may hand the sweep as its frame, as a function of
#: the address list; all of them must mean the same set of addresses
FRAME_FORMS = {
    "list": list,
    "iterator": iter,
    "duplicated": lambda ips: list(ips) + list(ips)[::2],
    "intervals": IntervalSet.from_values,
}


@pytest.fixture()
def small_world():
    internet = SimulatedInternet()
    ips = []
    for index in range(8):
        ip = IPv4Address.parse(f"100.0.113.{index + 1}")
        host = Host(ip)
        host.add_service(
            Service(8888, app=AppInstance(create_instance("jupyterlab"), 8888))
        )
        internet.add_host(host)
        ips.append(ip)
    return internet, ips


class TestMasscan:
    def test_finds_open_ports(self, small_world):
        internet, ips = small_world
        scanner = Masscan(InMemoryTransport(internet), ports=(80, 8888))
        result = scanner.scan(ips)
        assert all(result.ports_of(ip) == (8888,) for ip in ips)

    def test_dark_addresses_dropped(self, small_world):
        internet, ips = small_world
        scanner = Masscan(InMemoryTransport(internet), ports=(8888,))
        dark = IPv4Address.parse("93.184.216.34")  # routable but unpopulated
        result = scanner.scan(ips + [dark])
        assert dark.value not in result.open_ports
        assert result.addresses_scanned == len(ips) + 1

    def test_reserved_addresses_excluded(self, small_world):
        internet, ips = small_world
        scanner = Masscan(InMemoryTransport(internet), ports=(8888,))
        reserved = IPv4Address.parse("10.1.2.3")
        result = scanner.scan(ips + [reserved])
        assert result.addresses_scanned == len(ips)

    def test_probe_count(self, small_world):
        internet, ips = small_world
        scanner = Masscan(InMemoryTransport(internet), ports=(80, 443, 8888))
        result = scanner.scan(ips)
        assert result.probes_sent == 3 * len(ips)

    def test_batching_covers_everything(self, small_world):
        internet, ips = small_world
        scanner = Masscan(InMemoryTransport(internet), ports=(8888,))
        merged = PortScanResult()
        batches = list(scanner.scan_in_batches(ips, batch_size=3))
        assert len(batches) == 3  # 3 + 3 + 2
        for batch in batches:
            merged.merge(batch)
        assert len(merged.open_ports) == len(ips)

    def test_invalid_batch_size(self, small_world):
        internet, ips = small_world
        scanner = Masscan(InMemoryTransport(internet), ports=(8888,))
        with pytest.raises(ValueError):
            list(scanner.scan_in_batches(ips, batch_size=0))


class TestScanOrder:
    def _block_targets(self):
        # 4 /24 blocks x 64 addresses.
        targets = []
        for block in range(4):
            for offset in range(64):
                targets.append(IPv4Address.parse(f"198.51.{100 + block}.{offset + 1}"))
        return targets

    def test_randomised_order_interleaves_blocks(self):
        scanner = Masscan(
            InMemoryTransport(SimulatedInternet()), ports=(80,),
            rng=random.Random(5),
        )
        order = scanner.target_order(self._block_targets())
        # Sequential order would put all 64 of a /24 adjacently; randomised
        # order must break those runs.
        longest_run = run = 1
        for a, b in zip(order, order[1:]):
            run = run + 1 if a.value >> 8 == b.value >> 8 else 1
            longest_run = max(longest_run, run)
        assert longest_run == 64  # within-block still contiguous per design

    @pytest.mark.parametrize("form", sorted(FRAME_FORMS))
    def test_blocks_shuffle_but_each_is_probed_ascending(self, form):
        targets = [
            IPv4Address.parse(f"93.184.{block}.{offset}")
            for block in range(8) for offset in (3, 9, 70, 200, 201)
        ]
        bases = sorted({ip.value & 0xFFFFFF00 for ip in targets})
        random.Random(8).shuffle(targets)  # input order must not matter
        order = Masscan(
            InMemoryTransport(SimulatedInternet()), ports=(80,),
            rng=random.Random(5),
        ).target_order(FRAME_FORMS[form](targets))
        values = [ip.value for ip in order]
        blocks = [values[i:i + 5] for i in range(0, len(values), 5)]
        # every /24 shows up once, whole and ascending ...
        assert sorted(values) == sorted({ip.value for ip in targets})
        assert all(
            block == sorted(block) and len({v >> 8 for v in block}) == 1
            for block in blocks
        )
        # ... and the blocks come in the seeded shuffle, not sorted
        expected = list(bases)
        random.Random(5).shuffle(expected)
        assert [block[0] & 0xFFFFFF00 for block in blocks] == expected
        assert expected != bases

    def test_sequential_order_is_sorted(self):
        scanner = Masscan(
            InMemoryTransport(SimulatedInternet()), ports=(80,),
            randomise_order=False,
        )
        order = scanner.target_order(self._block_targets())
        assert [ip.value for ip in order] == sorted(ip.value for ip in order)

    def test_order_is_deterministic_per_seed(self):
        targets = self._block_targets()
        orders = []
        for _ in range(2):
            scanner = Masscan(
                InMemoryTransport(SimulatedInternet()), ports=(80,),
                rng=random.Random(9),
            )
            orders.append([ip.value for ip in scanner.target_order(targets)])
        assert orders[0] == orders[1]

    def test_burst_profile_distinguishes_orders(self):
        targets = self._block_targets()
        sequential = Masscan(
            InMemoryTransport(SimulatedInternet()), ports=(80,),
            randomise_order=False,
        ).target_order(targets)
        seq_peak = max(burst_profile(sequential, window=32).values())
        assert seq_peak == 32  # worst case: the window is one block

        # Shuffling address order globally spreads blocks out.
        rng = random.Random(1)
        shuffled_order = list(targets)
        rng.shuffle(shuffled_order)
        rnd_peak = max(burst_profile(shuffled_order, window=32).values())
        assert rnd_peak < seq_peak


class TestHotPaths:
    """The perf-PR rewrites must be behaviour-preserving."""

    def _mixed_order(self):
        rng = random.Random(4)
        targets = [
            IPv4Address.parse(f"198.51.{100 + block}.{offset + 1}")
            for block in range(4)
            for offset in range(32)
        ]
        rng.shuffle(targets)
        return targets

    def test_burst_profile_matches_naive_reference(self):
        order = self._mixed_order()
        window = 8

        def naive(order, window):
            peaks = {}
            for i, ip in enumerate(order):
                block = ip.value & 0xFFFFFF00
                recent = order[max(0, i - window + 1): i + 1]
                count = sum(
                    1 for other in recent
                    if other.value & 0xFFFFFF00 == block
                )
                peaks[block] = max(peaks.get(block, 0), count)
            return peaks

        assert burst_profile(order, window=window) == naive(order, window)

    def test_lazy_iteration_equals_materialised_order(self):
        targets = self._mixed_order()
        eager = Masscan(
            InMemoryTransport(SimulatedInternet()), ports=(80,),
            rng=random.Random(11),
        ).target_order(targets)
        lazy = list(
            Masscan(
                InMemoryTransport(SimulatedInternet()), ports=(80,),
                rng=random.Random(11),
            ).iter_target_order(targets)
        )
        assert lazy == eager

    def test_batched_skip_equals_slicing_the_order(self, small_world):
        internet, ips = small_world
        order = Masscan(
            InMemoryTransport(internet), ports=(8888,), rng=random.Random(2),
        ).target_order(ips)
        skip = 3
        scanner = Masscan(
            InMemoryTransport(internet), ports=(8888,), rng=random.Random(2),
        )
        merged = PortScanResult()
        for batch in scanner.scan_in_batches(ips, batch_size=2, skip=skip):
            merged.merge(batch)
        assert merged.addresses_scanned == len(ips) - skip
        # every target is an open host, so open_ports names the scanned set
        assert sorted(merged.open_ports) == sorted(
            ip.value for ip in order[skip:]
        )

    def test_fast_path_and_retry_path_agree(self, small_world):
        from repro.core.retry import RetryExecutor, RetryPolicy

        internet, ips = small_world
        fast = Masscan(InMemoryTransport(internet), ports=(80, 8888))
        slow = Masscan(
            InMemoryTransport(internet), ports=(80, 8888),
            retry=RetryExecutor(RetryPolicy(max_attempts=2)),
        )
        a, b = fast.scan(ips), slow.scan(ips)
        assert a.open_ports == b.open_ports
        assert a.probes_sent == b.probes_sent
        assert a.addresses_scanned == b.addresses_scanned


class _NoHints(InMemoryTransport):
    """A backend that cannot know which addresses are dead."""

    def live_values_in(self, start, end):
        return None


class TestStageIModesAgree:
    """Stage I is one block walk: hinted bulk accounting, a hint-less
    transport, a fault-free retry executor and an idle supervision — the
    last two over a backend that hints and over one that cannot — must
    yield the same batches, batch for batch, whatever the batch size and
    wherever a resumed sweep starts.

    Batches and masscan counters are all the modes share; the retry
    sweep's own ``masscan_resends_total`` is left out of the comparison.
    Under re-sends a hint-less backend is a different, dearer sweep: every
    dead address is sent every attempt, so its re-sends and the faults a
    chaos layer charges are not the hinted sweep's
    (``TestDeadFillerContributesCountsOnly`` pins the hinted side)."""

    PORTS = (80, 8888)
    ORDER_SEED = 3

    @pytest.fixture(scope="class")
    def world(self):
        from repro.net.intervals import BLOCK_MASK, CompressedPopulation, IntervalSet

        internet = SimulatedInternet()
        for text in ("93.184.216.20", "93.184.216.32", "93.184.216.250",
                     "93.184.217.32", "93.184.218.7", "93.184.218.32"):
            host = Host(IPv4Address.parse(text))
            host.add_service(Service(
                8888, app=AppInstance(create_instance("jupyterlab"), 8888)
            ))
            internet.add_host(host)
        # Three populated /24s plus dead filler ending in a partial /24 ...
        frame = CompressedPopulation.build(internet, 3 * 256 + 700, seed=5).frame
        # ... and one populated /24 made partial, a live host on each side.
        base = IPv4Address.parse("93.184.218.0").value
        frame = frame.difference(IntervalSet([(base + 10, base + 29)]))
        sizes = set(frame.block_counts().values())
        assert 256 in sizes and len(sizes) > 1
        live_blocks = {
            ip.value & BLOCK_MASK for ip in internet.populated_addresses()
        }
        return internet, frame, live_blocks

    def batches(self, mode, world, batch_size, skip, form="intervals"):
        from repro.core.retry import RetryExecutor, RetryPolicy
        from repro.core.supervisor import ShardSupervision, SupervisorConfig
        from repro.obs.telemetry import Telemetry
        from repro.util.clock import SimClock

        internet, frame, _ = world
        transport = (
            _NoHints if mode.endswith("no-hints") else InMemoryTransport
        )(internet)
        telemetry = Telemetry()
        extras = {}
        if mode.startswith("retry"):
            extras["retry"] = RetryExecutor(RetryPolicy())
        elif mode.startswith("supervised"):
            extras["supervision"] = ShardSupervision(
                SupervisorConfig(), SimClock(), planned=len(frame)
            )
        scanner = Masscan(
            transport, self.PORTS, rng=random.Random(self.ORDER_SEED),
            telemetry=telemetry, **extras,
        )
        seen = [
            (b.addresses_scanned, b.probes_sent, dict(b.open_ports))
            for b in scanner.scan_in_batches(
                FRAME_FORMS[form](frame), batch_size, skip=skip
            )
        ]
        counters = [
            series for series in telemetry.metrics.snapshot_state()["counters"]
            if series[0].startswith("masscan_")
            and series[0] != "masscan_resends_total"
        ]
        spans = [s.name for s in telemetry.tracer.finished]
        return seen, counters, spans, transport.stats.syn_probes

    def skips(self, world):
        """0, inside a dead /24, inside a populated /24, past the end."""
        from repro.net.intervals import BLOCK_MASK

        _, frame, live_blocks = world
        order = Masscan(
            InMemoryTransport(SimulatedInternet()), self.PORTS,
            rng=random.Random(self.ORDER_SEED),
        ).target_order(frame)

        def first(in_live_block, offset):
            return next(
                index for index, ip in enumerate(order)
                if ((ip.value & BLOCK_MASK) in live_blocks) is in_live_block
                and ip.value & 0xFF == offset
            )

        return 0, first(False, 128), first(True, 25), len(order) + 5

    @pytest.mark.parametrize("batch_size", [7, 100, 256, 1000, 2**62])
    def test_batch_for_batch(self, world, batch_size):
        for skip in self.skips(world):
            hinted = self.batches("hinted", world, batch_size, skip)
            assert sum(b[0] for b in hinted[0]) == max(0, len(world[1]) - skip)
            for mode in ("no-hints", "retry", "supervised"):
                other = self.batches(mode, world, batch_size, skip)
                assert other[:3] == hinted[:3], (mode, skip)
                if mode != "retry":  # retry legitimately re-sends to closed ports
                    assert other[3] == hinted[3], (mode, skip)
                if mode != "no-hints":
                    # The hint-less path under both stays covered: the same
                    # batches and, with no fault to tell them apart, the
                    # same packet count.
                    without = self.batches(
                        mode + "-no-hints", world, batch_size, skip
                    )
                    assert without == other, (mode, skip)

    @pytest.mark.parametrize("form", ["list", "iterator", "duplicated"])
    @pytest.mark.parametrize("batch_size", [7, 256, 2**62])
    def test_every_frame_form_batch_for_batch(self, world, batch_size, form):
        """A frame is a set of addresses however it is handed over: the
        same batches as the interval frame in every mode, and an address
        named twice is scanned once."""
        for skip in self.skips(world):
            golden = self.batches("hinted", world, batch_size, skip)
            for mode in ("hinted", "no-hints", "retry", "supervised"):
                other = self.batches(mode, world, batch_size, skip, form)
                assert other[:3] == golden[:3], (mode, skip)


class TestGateOnHintedOps:
    """The supervised gate refuses hosts, not addresses: only a value the
    hint says may answer can be a gate skip, and the dead run before a
    host is accounted whether or not the host is refused."""

    PORTS = (80, 8888)
    BASE = IPv4Address.parse("93.184.216.0").value
    LIVE = (20, 32, 250)

    def scanner(self):
        from repro.core.supervisor import ShardSupervision, SupervisorConfig
        from repro.net.intervals import IntervalSet
        from repro.util.clock import SimClock

        internet = SimulatedInternet()
        for offset in self.LIVE:
            host = Host(IPv4Address(self.BASE + offset))
            host.add_service(Service(
                8888, app=AppInstance(create_instance("jupyterlab"), 8888)
            ))
            internet.add_host(host)
        # The populated /24, then a dead one: the sweep ends on a dead
        # run.
        frame = IntervalSet([(self.BASE, self.BASE + 511)])
        supervision = ShardSupervision(
            SupervisorConfig(), SimClock(), planned=len(frame)
        )
        scanner = Masscan(
            InMemoryTransport(internet), self.PORTS, randomise_order=False,
            supervision=supervision,
        )
        return scanner, supervision, frame

    def test_a_quarantined_host_is_a_gate_skip_and_its_gap_is_accounted(self):
        scanner, supervision, frame = self.scanner()
        supervision.quarantine.hosts.add(self.BASE + 32)
        result = scanner.scan(frame)
        assert supervision.gate_skips_total == 1
        assert result.addresses_scanned == len(frame) - 1
        assert sorted(result.open_ports) == [self.BASE + 20, self.BASE + 250]
        assert result.probes_sent == (len(frame) - 1) * len(self.PORTS)
        assert scanner.transport.stats.syn_probes == result.probes_sent

    def test_a_slash24_quarantined_mid_sweep_skips_its_hosts_not_its_dead(self):
        scanner, supervision, frame = self.scanner()
        batches = scanner.scan_in_batches(frame, batch_size=25)
        first = next(batches)  # .0 - .24: the host at .20 is probed
        assert sorted(first.open_ports) == [self.BASE + 20]
        supervision.quarantine.blocks.add(self.BASE)
        rest = PortScanResult()
        for batch in batches:
            rest.merge(batch)
        # .32 and .250 are refused; the 229 dead addresses around them
        # and the dead /24 behind them are dead, not skipped.
        assert supervision.gate_skips_total == 2
        assert rest.open_ports == {}
        assert first.addresses_scanned + rest.addresses_scanned == len(frame) - 2

    def test_a_deadline_passed_inside_a_gap_stops_the_sweep_before_its_host(self):
        scanner, supervision, frame = self.scanner()
        supervision.deadline = 10.0
        batches = scanner.scan_in_batches(frame, batch_size=25)
        next(batches)  # flushed four addresses into the gap .21 - .31
        supervision.clock.advance(10.0)
        rest = list(batches)
        # The gap already pulled is finished; the host at .32 behind it is
        # not probed, and nothing after it is accounted at all.
        assert supervision.deadline_hit
        assert [(b.addresses_scanned, b.open_ports) for b in rest] == [(7, {})]
        assert supervision.gate_skips_total == 0


class _Asked(InMemoryTransport):
    """Records, in order, the addresses stage I asks in batch and the
    SYNs it sends one by one; ``hints`` off makes a backend that cannot
    know which addresses are dead."""

    def __init__(self, internet, hints=True):
        super().__init__(internet)
        self.hints = hints
        self.asked = []
        self.hint_queries = []

    def live_values_in(self, start, end):
        self.hint_queries.append((start, end))
        return super().live_values_in(start, end) if self.hints else None

    def probe_ports(self, values, ports):
        self.asked.extend(values)
        return super().probe_ports(values, ports)

    def syn_probe(self, ip, port):
        self.asked.append((ip.value, port))
        return super().syn_probe(ip, port)


class _AskedChaos(ChaosTransport):
    """A lossy layer recording every SYN its fault stream sees."""

    def __init__(self, inner):
        super().__init__(inner, FaultPlan(syn_loss=0.3), seed=5)
        self.asked = []

    def syn_probe(self, ip, port):
        self.asked.append((ip.value, port))
        return super().syn_probe(ip, port)


class TestBlockWalkMatchesHostByHost:
    """The /24 block walk against stage I as it was, host by host
    (``tests/core/reference_stage_one.py``): the same batches, open ports
    in the same insertion order, the same SYN count, re-sends and gate
    decisions, and the same packets in the same order — over frames of
    whole and partial /24s with a reserved cut, any batch size, any
    resume point, with and without hints, one or three attempts with and
    without loss, and a supervision gate whose quarantine and deadline
    move between batches the way stages II/III move them."""

    PORTS = (8888, 80)
    #: six /24s, 198.51.97.0 - 198.51.102.255; 198.51.100/24 is reserved
    BASE = IPv4Address.parse("198.51.97.0").value
    SPAN = 6 * 256

    def sweep(self, walk, case):
        from repro.core.retry import RetryExecutor, RetryPolicy
        from repro.core.supervisor import ShardSupervision, SupervisorConfig
        from repro.util.clock import SimClock

        internet = SimulatedInternet()
        for offset, kind in case["hosts"]:
            host = Host(IPv4Address(self.BASE + offset))
            for port in ((8888,), (80, 8888), (22,))[kind]:
                host.add_service(Service(
                    port, app=AppInstance(create_instance("jupyterlab"), port)
                ))
            internet.add_host(host)
        inner = _Asked(internet, hints=case["hints"])
        transport = _AskedChaos(inner) if case["chaos"] else inner
        frame = IntervalSet([
            (self.BASE + start, self.BASE + min(start + length, self.SPAN) - 1)
            for start, length in case["runs"]
        ])
        supervision = None
        if case["supervised"]:
            supervision = ShardSupervision(
                SupervisorConfig(), SimClock(), planned=len(frame)
            )
            supervision.quarantine.blocks.add(self.BASE + 256 * case["block"])
            supervision.deadline = case["deadline"]
        scanner = Masscan(
            transport, self.PORTS, rng=random.Random(case["seed"]),
            randomise_order=case["shuffle"], supervision=supervision,
            retry=RetryExecutor(RetryPolicy(max_attempts=case["attempts"])),
        )
        seen = []
        for index, (batch, resends) in enumerate(
            walk(scanner, frame, case["batch_size"], case["skip"])
        ):
            skips = None
            if supervision is not None:
                skips = supervision.drain_gate_skips()
                # what stages II/III do between batches: time passes, and
                # a host strikes out
                supervision.clock.advance(1.0)
                if index == case["strike_after"]:
                    supervision.quarantine.hosts.add(
                        self.BASE + case["struck"]
                    )
            seen.append((
                batch.addresses_scanned, batch.probes_sent,
                list(batch.open_ports.items()), resends,
                transport.stats.syn_probes, skips,
            ))
        stopped = supervision is not None and supervision.deadline_hit
        return seen, transport.asked, stopped

    @staticmethod
    def walk(scanner, frame, batch_size, skip):
        """The block walk, each batch with its re-sends read off the
        counter series stage I tallies them in."""
        from repro.obs.telemetry import Telemetry

        scanner.telemetry = telemetry = Telemetry()
        before = 0.0
        for batch in scanner.scan_in_batches(frame, batch_size, skip=skip):
            total = telemetry.metrics.counter_value("masscan_resends_total")
            yield batch, int(total - before)
            before = total

    #: a plain hinted sweep, for the examples below
    PLAIN = dict(
        batch_size=7, skip=0, hints=True, chaos=False, attempts=1,
        supervised=False, block=0, deadline=None, strike_after=0, struck=0,
        seed=0, shuffle=True,
    )

    # Stage I asks for liveness over the frame's hull, so each of these
    # live hosts outside the frame is in the answer and must be dropped:
    # in an unframed /24 between two runs,
    @example(runs=[(0, 256), (512, 256)], hosts=[(5, 0), (261, 1), (517, 0)],
             **PLAIN)
    # in the reserved /24 a run crosses,
    @example(runs=[(600, 400)], hosts=[(700, 0), (800, 1), (900, 0)], **PLAIN)
    # in a hole of a partial /24,
    @example(runs=[(0, 10), (20, 10)], hosts=[(5, 0), (15, 1), (25, 2)],
             **PLAIN)
    # and beside a frame that is empty once the reserved /24 is cut.
    @example(runs=[(768, 200)], hosts=[(700, 0), (800, 1), (1100, 0)],
             **PLAIN)
    @settings(max_examples=150, deadline=None)
    @given(
        runs=st.lists(
            st.tuples(st.integers(0, SPAN - 1), st.integers(1, 600)),
            min_size=1, max_size=5,
        ),
        hosts=st.lists(
            st.tuples(st.integers(0, SPAN - 1), st.integers(0, 2)),
            max_size=16, unique_by=lambda host: host[0],
        ),
        batch_size=st.one_of(
            st.sampled_from([1, 7, 256, 2**62]), st.integers(1, 700)
        ),
        skip=st.one_of(st.just(0), st.integers(0, SPAN + 10)),
        hints=st.booleans(),
        chaos=st.booleans(),
        attempts=st.sampled_from([1, 3]),
        supervised=st.booleans(),
        block=st.integers(0, 5),
        deadline=st.one_of(st.none(), st.integers(0, 6).map(float)),
        strike_after=st.integers(0, 4),
        struck=st.integers(0, SPAN - 1),
        seed=st.integers(0, 3),
        shuffle=st.booleans(),
    )
    def test_batches_packets_and_gate_decisions_match(self, **case):
        from tests.core.reference_stage_one import reference_batches

        assert self.sweep(self.walk, case) == self.sweep(reference_batches, case)


def test_a_sweep_asks_for_liveness_once_over_the_frame_hull():
    """Three runs with unframed space and a reserved /24 between them, in
    many batches: one ``live_values_in`` call, over the frame's hull."""
    from repro.apps.catalog import scanned_ports
    from repro.core.pipeline import ScanPipeline

    base = IPv4Address.parse("198.51.97.0").value
    internet = SimulatedInternet()
    for offset in (3, 300, 700, 900, 1300):
        host = Host(IPv4Address(base + offset))
        host.add_service(
            Service(8888, app=AppInstance(create_instance("jupyterlab"), 8888))
        )
        internet.add_host(host)
    transport = _Asked(internet)
    frame = IntervalSet([
        (base, base + 99), (base + 700, base + 1000), (base + 1200, base + 1400),
    ])
    report = ScanPipeline(
        transport, scanned_ports(), seed=1, batch_size=50
    ).run(frame)
    assert transport.hint_queries == [(base, base + 1400)]
    # the hosts at 300 (unframed) and 900 (reserved) were never asked
    assert sorted(report.port_scan.open_ports) == [
        base + 3, base + 700, base + 1300,
    ]
    assert sorted(transport.asked) == [base + 3, base + 700, base + 1300]

"""Tests for interval-compressed populations."""

import tracemalloc

import pytest

from repro.net.intervals import (
    BLOCK_SIZE,
    CompressedPopulation,
    IntervalSet,
    reserved_intervals,
)
from repro.net.ipv4 import MAX_IPV4, IPv4Address, is_reserved
from repro.net.network import SimulatedInternet
from repro.net.population import PopulationModel, generate_internet


class TestConstruction:
    def test_runs_are_merged_and_sorted(self):
        s = IntervalSet([(20, 30), (0, 9), (10, 15)])
        assert s.runs == ((0, 15), (20, 30))

    def test_overlapping_runs_merge(self):
        s = IntervalSet([(0, 100), (50, 200)])
        assert s.runs == ((0, 200),)

    def test_from_values_compresses_contiguous(self):
        s = IntervalSet.from_values([5, 1, 2, 3, 9, 4])
        assert s.runs == ((1, 5), (9, 9))

    def test_from_values_accepts_addresses(self):
        ip = IPv4Address.parse("10.0.0.1")
        s = IntervalSet.from_values([ip, ip.value + 1])
        assert s.runs == ((ip.value, ip.value + 1),)

    def test_invalid_run_rejected(self):
        with pytest.raises(ValueError):
            IntervalSet([(10, 5)])
        with pytest.raises(ValueError):
            IntervalSet([(0, MAX_IPV4 + 1)])


class TestAlgebra:
    def test_union(self):
        a = IntervalSet([(0, 10)])
        b = IntervalSet([(5, 20), (30, 40)])
        assert a.union(b).runs == ((0, 20), (30, 40))

    def test_intersect(self):
        a = IntervalSet([(0, 10), (20, 30)])
        b = IntervalSet([(5, 25)])
        assert a.intersect(b).runs == ((5, 10), (20, 25))

    def test_difference_splits_runs(self):
        a = IntervalSet([(0, 100)])
        b = IntervalSet([(10, 20), (40, 50)])
        assert a.difference(b).runs == ((0, 9), (21, 39), (51, 100))

    def test_difference_is_relative_complement(self):
        a = IntervalSet([(0, 50)])
        assert a.difference(a).runs == ()
        assert a.difference(IntervalSet()) == a

    def test_equality_is_structural(self):
        assert IntervalSet([(0, 5), (6, 10)]) == IntervalSet([(0, 10)])


class TestQueries:
    def test_membership(self):
        s = IntervalSet([(10, 20), (40, 40)])
        assert 10 in s and 20 in s and 40 in s
        assert 9 not in s and 21 not in s and 39 not in s
        assert IPv4Address(15) in s

    def test_values_in_range(self):
        s = IntervalSet([(10, 12), (20, 22)])
        assert s.values_in(11, 21) == [11, 12, 20, 21]
        assert s.values_in(0, 5) == []

    def test_count_in_matches_values_in(self):
        s = IntervalSet([(10, 12), (20, 22), (300, 600)])
        for lo, hi in [(0, 1000), (11, 21), (250, 310), (601, 700)]:
            assert s.count_in(lo, hi) == len(s.values_in(lo, hi))

    def test_take_lowest(self):
        s = IntervalSet([(10, 12), (20, 29)])
        assert s.take(5).runs == ((10, 12), (20, 21))
        assert s.take(0) == IntervalSet()
        assert s.take(100) == s


class TestBlockViews:
    def test_block_bases_cross_boundaries(self):
        s = IntervalSet([(200, 600)])  # spans blocks 0, 256, 512
        assert s.block_bases() == [0, 256, 512]

    def test_block_values(self):
        s = IntervalSet([(200, 600)])
        assert s.block_values(256) == list(range(256, 512))
        assert s.block_values(0) == list(range(200, 256))

    def test_block_counts_matches_block_values(self):
        s = IntervalSet([(200, 600), (1000, 1001), (5000, 9000)])
        counts = s.block_counts()
        assert list(counts) == s.block_bases()  # ascending insertion order
        for base in s.block_bases():
            assert counts[base] == len(s.block_values(base))
        assert sum(counts.values()) == len(s)

    def test_block_counts_merges_runs_in_one_block(self):
        s = IntervalSet([(10, 20), (30, 40)])
        assert s.block_counts() == {0: 22}


class TestSerialisation:
    def test_round_trip(self):
        s = IntervalSet([(0, 10), (300, 5000)])
        assert IntervalSet.from_dict(s.to_dict()) == s


class TestReservedIntervals:
    def test_agrees_with_is_reserved(self):
        reserved = reserved_intervals()
        for text in ["0.0.0.0", "10.0.0.1", "127.0.0.1", "224.0.0.1", "8.8.8.8"]:
            ip = IPv4Address.parse(text)
            assert (ip.value in reserved) == is_reserved(ip)


class TestCompressedPopulation:
    @pytest.fixture(scope="class")
    def world(self):
        return generate_internet(
            PopulationModel(awe_rate=0.002, vuln_rate=0.05, background_rate=2e-7)
        )

    def test_build_hits_target_size(self, world):
        internet, _, _ = world
        pop = CompressedPopulation.build(internet, 2_000_000, seed=7)
        assert pop.address_count == 2_000_000

    def test_target_below_populated_floor_keeps_every_block(self, world):
        internet, _, _ = world
        pop = CompressedPopulation.build(internet, 1, seed=7)
        # The frame never drops a populated /24 to meet the target.
        blocks = {ip.value & 0xFFFFFF00 for ip in internet.populated_addresses()}
        assert pop.address_count == 256 * len(blocks)

    def test_frame_covers_every_populated_block(self, world):
        internet, _, _ = world
        pop = CompressedPopulation.build(internet, 2_000_000, seed=7)
        for ip in internet.populated_addresses():
            assert ip.value in pop.frame
            assert ip.value & ~(BLOCK_SIZE - 1) in pop.frame

    def test_filler_avoids_reserved_space(self, world):
        internet, _, _ = world
        pop = CompressedPopulation.build(internet, 2_000_000, seed=7)
        assert pop.frame.intersect(reserved_intervals()) == IntervalSet()

    def test_deterministic_per_seed(self, world):
        internet, _, _ = world
        a = CompressedPopulation.build(internet, 2_000_000, seed=1)
        b = CompressedPopulation.build(internet, 2_000_000, seed=1)
        c = CompressedPopulation.build(internet, 2_000_000, seed=2)
        assert a.frame == b.frame
        assert a.frame != c.frame

    def test_live_values_ascending_and_in_frame(self, world):
        internet, _, _ = world
        pop = CompressedPopulation.build(internet, 2_000_000, seed=1)
        live = pop.live_values()
        assert live == sorted(live)
        assert len(live) == len(internet.populated_addresses())

    def test_frame_costs_a_fraction_of_a_byte_per_address(self, world):
        """The frame's memory follows its runs, not its addresses: a
        10M-address frame over the tiny-study world (``world`` is
        ``StudyConfig.tiny().population``) reads 883,768 B for 5,696
        runs = 0.088 B/address, against 148 B/address for a per-address
        ``{address: {}}`` dict (measured on a 200,000-entry sample, not
        on 10M entries)."""
        internet, _, _ = world
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            pop = CompressedPopulation.build(internet, 10_000_000, seed=20210603)
            after, _ = tracemalloc.get_traced_memory()
            frame_per_address = (after - before) / pop.address_count
            before, _ = tracemalloc.get_traced_memory()
            sample = {value: {} for value in range(200_000)}
            after, _ = tracemalloc.get_traced_memory()
            dict_per_address = (after - before) / len(sample)
        finally:
            tracemalloc.stop()
        assert pop.address_count == 10_000_000
        assert frame_per_address <= 0.2
        assert dict_per_address >= 10 * frame_per_address

    def test_empty_internet_is_pure_filler(self):
        pop = CompressedPopulation.build(SimulatedInternet(), 10_000, seed=3)
        assert pop.address_count == 10_000
        assert pop.live_values() == []

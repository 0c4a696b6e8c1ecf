"""Tests for IPv4 addresses and CIDR networks."""

import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.net.ipv4 import (
    BLOCK_MASK,
    MAX_IPV4,
    IPv4Address,
    IPv4Network,
    dotted_quad,
    iana_reserved_networks,
    is_reserved,
    scannable_address_count,
)


class TestIPv4Address:
    def test_parse_and_str_roundtrip(self):
        assert str(IPv4Address.parse("192.0.2.1")) == "192.0.2.1"

    def test_octets(self):
        assert IPv4Address.parse("10.20.30.40").octets == (10, 20, 30, 40)

    def test_int_conversion(self):
        assert int(IPv4Address.parse("0.0.0.1")) == 1
        assert int(IPv4Address.parse("255.255.255.255")) == MAX_IPV4

    def test_ordering_follows_numeric_value(self):
        assert IPv4Address.parse("1.0.0.0") < IPv4Address.parse("2.0.0.0")

    def test_slash24(self):
        assert str(IPv4Address.parse("198.51.100.77").slash24) == "198.51.100.0/24"

    def test_the_block_mask_is_written_out_once(self):
        """Every /24 base in the package is ``value & BLOCK_MASK``; the
        literal is on one line of this module, and ``repro.net.intervals``
        re-exports the same constant."""
        from repro.net import intervals

        root = Path(repro.__file__).parent
        spelled = [
            path.relative_to(root).as_posix()
            for path in sorted(root.rglob("*.py"))
            for line in path.read_text().splitlines()
            if re.search(r"0x[fF]{6}00\b", line)
        ]
        assert spelled == ["net/ipv4.py"]
        assert intervals.BLOCK_MASK is BLOCK_MASK == 0xFFFFFF00
        assert IPv4Address.parse("198.51.100.77").value & BLOCK_MASK == (
            IPv4Address.parse("198.51.100.0").value
        )

    @pytest.mark.parametrize(
        "bad", ["1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", "", "1..2.3"]
    )
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            IPv4Address.parse(bad)

    def test_out_of_range_int_rejected(self):
        with pytest.raises(ValueError):
            IPv4Address(MAX_IPV4 + 1)
        with pytest.raises(ValueError):
            IPv4Address(-1)

    @given(st.integers(min_value=0, max_value=MAX_IPV4))
    def test_str_parse_roundtrip_property(self, value):
        address = IPv4Address(value)
        assert IPv4Address.parse(str(address)) == address
        # one rendering, with or without the object, and it is the
        # octets joined: the form every report and golden already holds
        assert str(address) == dotted_quad(value)
        assert str(address) == ".".join(str(o) for o in address.octets)

    @pytest.mark.parametrize("value", [
        0, 1, 255, 256, 257, 2**16 - 1, 2**16, 2**24 - 1, 2**24,
        2**31 - 1, 2**31, MAX_IPV4 - 255, MAX_IPV4 - 1, MAX_IPV4,
        0xFF000000, 0x00FF0000, 0x0000FF00, 0x01020304, 0x0A00000A,
    ])
    def test_str_at_the_octet_boundaries(self, value):
        address = IPv4Address(value)
        text = str(address)
        assert IPv4Address.parse(text) == address
        assert text == dotted_quad(value) == ".".join(map(str, address.octets))

    def test_dotted_quads_do_not_sort_numerically(self):
        """Readers that order by the rendered host (the flight recorder's
        tie-break) order by string: keep that in mind, and keep it so."""
        nine, ten = IPv4Address.parse("10.0.0.9"), IPv4Address.parse("10.0.0.10")
        assert nine < ten and str(nine) > str(ten)


class TestIPv4Network:
    def test_parse(self):
        network = IPv4Network.parse("10.0.0.0/8")
        assert network.prefix == 8
        assert network.size == 2**24

    def test_contains(self):
        network = IPv4Network.parse("192.168.0.0/16")
        assert IPv4Address.parse("192.168.5.5") in network
        assert IPv4Address.parse("192.169.0.0") not in network

    def test_first_last(self):
        network = IPv4Network.parse("10.0.0.0/30")
        assert str(network.first) == "10.0.0.0"
        assert str(network.last) == "10.0.0.3"

    def test_host_bits_rejected(self):
        with pytest.raises(ValueError):
            IPv4Network.parse("10.0.0.1/8")

    def test_invalid_prefix_rejected(self):
        with pytest.raises(ValueError):
            IPv4Network(IPv4Address(0), 33)

    def test_addresses_enumeration(self):
        network = IPv4Network.parse("192.0.2.0/30")
        assert [str(a) for a in network.addresses()] == [
            "192.0.2.0", "192.0.2.1", "192.0.2.2", "192.0.2.3",
        ]

    def test_subnets_24(self):
        subnets = list(IPv4Network.parse("10.0.0.0/22").subnets_24())
        assert len(subnets) == 4
        assert all(s.prefix == 24 for s in subnets)

    def test_subnets_24_rejects_smaller(self):
        with pytest.raises(ValueError):
            list(IPv4Network.parse("10.0.0.0/30").subnets_24())

    @given(st.integers(min_value=0, max_value=MAX_IPV4), st.integers(0, 32))
    def test_contains_consistent_with_range(self, value, prefix):
        base = IPv4Address(value & ((0xFFFFFFFF << (32 - prefix)) & 0xFFFFFFFF))
        network = IPv4Network(base, prefix)
        assert network.contains(network.first)
        assert network.contains(network.last)


class TestReservedRanges:
    def test_private_ranges_reserved(self):
        for ip in ("10.1.2.3", "172.16.0.1", "192.168.1.1", "127.0.0.1"):
            assert is_reserved(IPv4Address.parse(ip)), ip

    def test_multicast_and_future_reserved(self):
        assert is_reserved(IPv4Address.parse("224.0.0.1"))
        assert is_reserved(IPv4Address.parse("240.0.0.1"))

    def test_public_not_reserved(self):
        for ip in ("8.8.8.8", "93.184.216.34", "52.0.0.1"):
            assert not is_reserved(IPv4Address.parse(ip)), ip

    def test_reserved_networks_do_not_overlap(self):
        networks = iana_reserved_networks()
        for i, a in enumerate(networks):
            for b in networks[i + 1:]:
                assert not (a.contains(b.first) or b.contains(a.first)), (a, b)

    def test_scannable_count_roughly_3_5_billion(self):
        # The paper: excluding reserved allocations leaves ~3.5B addresses.
        count = scannable_address_count()
        assert 3.3e9 < count < 3.7e9

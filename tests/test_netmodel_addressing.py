"""Tests for IP address and prefix helpers."""

import ipaddress

import pytest
from hypothesis import given, strategies as st

from repro.netmodel.addressing import (
    PrefixAllocator,
    count_slash24,
    count_slash56,
    ip_in_prefix,
    is_ipv6,
    parse_ip,
    prefix_of,
)


def test_parse_ip_idempotent():
    addr = parse_ip("10.0.0.1")
    assert parse_ip(addr) is addr
    assert parse_ip("::1").version == 6


def test_is_ipv6():
    assert is_ipv6("fd00::1")
    assert not is_ipv6("192.0.2.1")


def test_prefix_of():
    assert str(prefix_of("10.1.2.3", 24)) == "10.1.2.0/24"
    assert str(prefix_of("fd00::1234", 56)) == "fd00::/56"


def test_ip_in_prefix():
    assert ip_in_prefix("10.1.2.3", "10.1.0.0/16")
    assert not ip_in_prefix("10.2.0.1", "10.1.0.0/16")
    assert not ip_in_prefix("fd00::1", "10.0.0.0/8")


def test_count_slash24_and_slash56():
    ips = ["10.0.0.1", "10.0.0.200", "10.0.1.1", "fd00::1", "fd00:0:0:100::1"]
    assert count_slash24(ips) == 2
    assert count_slash56(ips) == 2


class TestPrefixAllocator:
    def test_allocates_disjoint_prefixes(self):
        allocator = PrefixAllocator("10.0.0.0/8")
        first = allocator.allocate_prefix(24)
        second = allocator.allocate_prefix(24)
        assert first != second
        assert not first.overlaps(second)

    def test_hosts_in_prefix(self):
        allocator = PrefixAllocator("10.0.0.0/8")
        prefix = allocator.allocate_prefix(24)
        hosts = allocator.hosts_in(prefix, 5)
        assert len(hosts) == 5
        assert all(h in prefix for h in hosts)

    def test_hosts_in_overflow_rejected(self):
        allocator = PrefixAllocator("10.0.0.0/8")
        prefix = allocator.allocate_prefix(30)
        with pytest.raises(ValueError):
            allocator.hosts_in(prefix, 10)

    def test_rejects_too_short_prefix(self):
        allocator = PrefixAllocator("10.0.0.0/16")
        with pytest.raises(ValueError):
            allocator.allocate_prefix(8)

    def test_ipv6_allocation(self):
        allocator = PrefixAllocator("fd00::/20")
        prefix = allocator.allocate_prefix(56)
        assert prefix.prefixlen == 56
        assert prefix.version == 6

    def test_exhaustion(self):
        allocator = PrefixAllocator("10.0.0.0/30")
        allocator.allocate_prefix(31)
        allocator.allocate_prefix(31)
        with pytest.raises(ValueError):
            allocator.allocate_prefix(31)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=8, max_value=32))
def test_prefix_of_always_contains_ip(ip_int, length):
    ip = ipaddress.ip_address(ip_int)
    prefix = prefix_of(ip, length)
    assert ip in prefix
    assert prefix.prefixlen == length


@given(st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=60))
def test_count_slash24_bounded_by_ip_count(ip_ints):
    ips = [str(ipaddress.ip_address(i)) for i in ip_ints]
    assert 0 <= count_slash24(ips) <= len(set(ips))

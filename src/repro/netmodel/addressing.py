"""IP address and prefix helpers built on the standard :mod:`ipaddress` module.

The simulation needs to (a) allocate non-overlapping prefixes to providers, clouds,
and the ISP, (b) aggregate discovered addresses into /24 (IPv4) and /56 (IPv6)
blocks as Table 1 of the paper reports, and (c) answer longest-prefix matches.
:class:`PrefixIndex` is the one longest-prefix-match implementation: the
geolocation database (Section 4.2) and the routing table (Section 4.3) both
look addresses up through it.  All helpers accept either string or
``ipaddress`` objects.
"""

from __future__ import annotations

import ipaddress
from typing import Dict, Generic, Iterable, List, Optional, Tuple, TypeVar, Union

IPAddress = Union[ipaddress.IPv4Address, ipaddress.IPv6Address]
IPNetwork = Union[ipaddress.IPv4Network, ipaddress.IPv6Network]
IPLike = Union[str, IPAddress]
NetLike = Union[str, IPNetwork]

V = TypeVar("V")

_MISSING = object()


def parse_ip(value: IPLike) -> IPAddress:
    """Parse a string into an IPv4/IPv6 address (idempotent on address objects)."""
    if isinstance(value, (ipaddress.IPv4Address, ipaddress.IPv6Address)):
        return value
    return ipaddress.ip_address(value)


def parse_network(value: NetLike) -> IPNetwork:
    """Parse a string into an IPv4/IPv6 network (idempotent on network objects)."""
    if isinstance(value, (ipaddress.IPv4Network, ipaddress.IPv6Network)):
        return value
    return ipaddress.ip_network(value, strict=False)


def is_ipv6(value: IPLike) -> bool:
    """Return True if the address is an IPv6 address."""
    return parse_ip(value).version == 6


def prefix_of(value: IPLike, length: int) -> IPNetwork:
    """Return the enclosing prefix of the given length for an address."""
    addr = parse_ip(value)
    return ipaddress.ip_network(f"{addr}/{length}", strict=False)


def ip_in_prefix(value: IPLike, network: NetLike) -> bool:
    """Return True if the address falls inside the prefix."""
    addr = parse_ip(value)
    net = parse_network(network)
    if addr.version != net.version:
        return False
    return addr in net


def count_slash24(ips: Iterable[IPLike]) -> int:
    """Count distinct IPv4 /24 blocks covered by the addresses (IPv6 ignored)."""
    blocks = {prefix_of(ip, 24) for ip in map(parse_ip, ips) if ip.version == 4}
    return len(blocks)


def count_slash56(ips: Iterable[IPLike]) -> int:
    """Count distinct IPv6 /56 blocks covered by the addresses (IPv4 ignored)."""
    blocks = {prefix_of(ip, 56) for ip in map(parse_ip, ips) if ip.version == 6}
    return len(blocks)


class PrefixAllocator:
    """Allocates non-overlapping sub-prefixes and host addresses from a pool.

    The world builder creates one allocator per address family and carves provider
    and ISP prefixes out of it.  Allocation is strictly sequential and therefore
    deterministic.

    Parameters
    ----------
    pool:
        The super-prefix from which all allocations are made (e.g. ``10.0.0.0/8``).
    """

    def __init__(self, pool: NetLike) -> None:
        self._pool = parse_network(pool)
        self._cursor = int(self._pool.network_address)
        self._end = int(self._pool.broadcast_address) + 1

    def allocate_prefix(self, prefix_length: int) -> IPNetwork:
        """Allocate the next available prefix of the requested length.

        Raises
        ------
        ValueError
            If the requested length is shorter than the pool's length or the pool
            is exhausted.
        """
        if prefix_length < self._pool.prefixlen:
            raise ValueError(
                f"cannot allocate /{prefix_length} from pool {self._pool}"
            )
        block_size = 2 ** ((128 if self._pool.version == 6 else 32) - prefix_length)
        # Align the cursor to the block size.
        if self._cursor % block_size:
            self._cursor += block_size - (self._cursor % block_size)
        if self._cursor + block_size > self._end:
            raise ValueError(f"prefix pool {self._pool} exhausted")
        # Built from (integer, length): no text is formatted or parsed.
        network = type(self._pool)((self._cursor, prefix_length))
        self._cursor += block_size
        return network

    def hosts_in(self, network: NetLike, count: int, start_offset: int = 1) -> List[IPAddress]:
        """Return ``count`` host addresses from a network, starting at an offset.

        The offset defaults to 1 to skip the network address for IPv4.  The
        addresses are built from integers, so a parsed network is never
        formatted or parsed again.
        """
        net = parse_network(network)
        base = int(net.network_address)
        max_hosts = net.num_addresses - start_offset
        if count > max_hosts:
            raise ValueError(
                f"requested {count} hosts but {net} only has {max_hosts} available"
            )
        address = type(net.network_address)
        return [address(base + start_offset + i) for i in range(count)]


class PrefixIndex(Generic[V]):
    """A longest-prefix-match index from networks to values.

    Each ``(version, prefixlen)`` pair that holds a prefix gets one hash table
    mapping ``int(network_address)`` to the value.  :meth:`lookup` parses the
    address once, masks it to each registered length of its version, longest
    first, and probes that table; a world with one prefix length per version
    answers every lookup with a single dict probe.

    Networks are normalized on insert (``10.0.0.5/24`` is ``10.0.0.0/24``).
    Equal networks follow mapping semantics: ``index[net] = value`` replaces
    the stored value (last registration wins) and :meth:`setdefault` keeps
    the first one.
    """

    def __init__(self) -> None:
        # Per version: (prefixlen, mask, table) triples, longest prefix first.
        self._probes: Dict[int, List[Tuple[int, int, Dict[int, V]]]] = {4: [], 6: []}

    def _table(self, network: IPNetwork) -> Dict[int, V]:
        probes = self._probes[network.version]
        for prefixlen, _mask, existing in probes:
            if prefixlen == network.prefixlen:
                return existing
        table: Dict[int, V] = {}
        probes.append((network.prefixlen, int(network.netmask), table))
        probes.sort(key=lambda probe: -probe[0])
        return table

    def __setitem__(self, prefix: NetLike, value: V) -> None:
        network = parse_network(prefix)
        self._table(network)[int(network.network_address)] = value

    def setdefault(self, prefix: NetLike, value: V) -> V:
        """Store ``value`` unless the network already has one; return the stored value."""
        network = parse_network(prefix)
        return self._table(network).setdefault(int(network.network_address), value)

    def lookup(self, ip: IPLike) -> Optional[V]:
        """Return the value of the most specific prefix covering the address, or None."""
        addr = parse_ip(ip)
        value = int(addr)
        for _prefixlen, mask, table in self._probes[addr.version]:
            hit = table.get(value & mask, _MISSING)
            if hit is not _MISSING:
                return hit
        return None

    def overlaps(self, prefix: NetLike) -> bool:
        """True when some indexed network shares an address with ``prefix``.

        Two CIDR blocks are nested or disjoint, so this is integer
        containment per indexed length: an indexed network no longer than
        ``prefix`` must hold its network address, and a longer one must lie
        inside ``prefix``.
        """
        network = parse_network(prefix)
        value = int(network.network_address)
        own_mask = int(network.netmask)
        for prefixlen, mask, table in self._probes[network.version]:
            if prefixlen <= network.prefixlen:
                if (value & mask) in table:
                    return True
            elif any((key & own_mask) == value for key in table):
                return True
        return False

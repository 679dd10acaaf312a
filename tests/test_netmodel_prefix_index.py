"""``PrefixIndex`` against the linear longest-prefix scans it replaced.

``GeoDatabase.lookup_ip`` and ``RoutingTable.lookup`` used to answer each
lookup by testing every registered prefix for containment.  Those two scans
live on here as the oracle: a seeded fuzz over mixed IPv4/IPv6 prefix sets and
a world-level check over every server of the small scenario must give the
same answer, object for object, through the index.
"""

from __future__ import annotations

import ipaddress
import random
from typing import Dict, List, Optional, Tuple

import pytest

from repro.netmodel.addressing import IPLike, PrefixIndex, parse_ip, parse_network
from repro.netmodel.geo import GeoDatabase, Location, world_locations
from repro.routing.bgp import Announcement, RoutingTable
from repro.simulation.config import ScenarioConfig
from repro.simulation.world import build_world

LOCATIONS = world_locations()

V4_LENGTHS = (0, 1, 8, 12, 16, 20, 23, 24, 25, 28, 31, 32)
V6_LENGTHS = (0, 1, 16, 32, 48, 56, 63, 64, 96, 120, 127, 128)


def oracle_geo_lookup(prefixes: Dict[object, Location], ip: IPLike) -> Optional[Location]:
    """The former ``GeoDatabase.lookup_ip`` scan over a network -> location dict.

    The dict keeps the last registration of an equal network; the longest
    covering prefix wins.
    """
    addr = parse_ip(ip)
    best: Optional[Location] = None
    best_len = -1
    for prefix, location in prefixes.items():
        if addr.version == prefix.version and addr in prefix and prefix.prefixlen > best_len:
            best = location
            best_len = prefix.prefixlen
    return best


def oracle_routing_lookup(
    announcements: List[Tuple[object, Announcement]], ip: IPLike
) -> Optional[Announcement]:
    """The former ``RoutingTable.lookup`` scan over (network, announcement) pairs.

    The strict ``>`` keeps the first announcement of an equal prefix.
    """
    address = parse_ip(ip)
    best: Optional[Announcement] = None
    best_length = -1
    for network, announcement in announcements:
        if network.version != address.version:
            continue
        if address in network and network.prefixlen > best_length:
            best = announcement
            best_length = network.prefixlen
    return best


def _random_address(rng: random.Random, version: int, anchors: List[int]) -> int:
    bits = 32 if version == 4 else 128
    roll = rng.random()
    if anchors and roll < 0.5:
        # Near an anchor: flip a few low bits, so the address stays inside
        # the longer prefixes around the anchor only some of the time.
        return rng.choice(anchors) ^ rng.getrandbits(rng.randint(0, bits))
    if anchors and roll < 0.7:
        return rng.choice(anchors)
    return rng.getrandbits(bits)


def _address(version: int, value: int):
    return ipaddress.IPv4Address(value) if version == 4 else ipaddress.IPv6Address(value)


def _fuzz_case(seed: int):
    """Registrations ``[(prefix, value_index)]`` and queries for one seed."""
    rng = random.Random(seed)
    anchors = {4: [rng.getrandbits(32) for _ in range(6)], 6: [rng.getrandbits(128) for _ in range(6)]}
    registrations = []
    for _ in range(rng.randint(1, 60)):
        version = rng.choice((4, 6))
        length = rng.choice(V4_LENGTHS if version == 4 else V6_LENGTHS)
        # Anchored prefixes nest and overlap; the address keeps its host
        # bits, so the text form is often non-normalized (10.0.0.5/24).
        address = _address(version, _random_address(rng, version, anchors[version]))
        if rng.random() < 0.3:
            prefix = ipaddress.ip_network(f"{address}/{length}", strict=False)
        else:
            prefix = f"{address}/{length}"
        registrations.append((prefix, rng.randrange(len(LOCATIONS))))
        if rng.random() < 0.2:
            # The same network again, with a different value.
            registrations.append((prefix, rng.randrange(len(LOCATIONS))))
    queries = []
    for _ in range(200):
        version = rng.choice((4, 6))
        address = _address(version, _random_address(rng, version, anchors[version]))
        queries.append(address if rng.random() < 0.5 else str(address))
    return registrations, queries


SEEDS = range(40)


@pytest.mark.parametrize("seed", SEEDS)
def test_geo_database_matches_the_linear_scan(seed):
    registrations, queries = _fuzz_case(seed)
    db = GeoDatabase()
    oracle: Dict[object, Location] = {}
    for prefix, value in registrations:
        db.register_prefix(prefix, LOCATIONS[value])
        oracle[parse_network(prefix)] = LOCATIONS[value]
    for query in queries:
        assert db.lookup_ip(query) is oracle_geo_lookup(oracle, query), query


@pytest.mark.parametrize("seed", SEEDS)
def test_routing_table_matches_the_linear_scan(seed):
    registrations, queries = _fuzz_case(seed)
    table = RoutingTable()
    oracle: List[Tuple[object, Announcement]] = []
    seen = set()
    for prefix, value in registrations:
        # Two origins per value index: repeats of an (prefix, origin) pair
        # are dropped, a new origin for a known prefix is a MOAS conflict.
        announcement = Announcement(str(prefix), 64500 + value % 2)
        table.announce(announcement)
        key = (str(parse_network(prefix)), announcement.origin_asn)
        if key not in seen:
            seen.add(key)
            oracle.append((parse_network(prefix), announcement))
    for query in queries:
        assert table.lookup(query) is oracle_routing_lookup(oracle, query), query


@pytest.mark.parametrize("seed", SEEDS)
def test_prefix_index_last_write_and_first_write_semantics(seed):
    registrations, queries = _fuzz_case(seed)
    last_wins: PrefixIndex[int] = PrefixIndex()
    first_wins: PrefixIndex[int] = PrefixIndex()
    last_oracle: Dict[object, int] = {}
    first_oracle: List[Tuple[object, int]] = []
    for serial, (prefix, _value) in enumerate(registrations):
        last_wins[prefix] = serial
        first_wins.setdefault(prefix, serial)
        last_oracle[parse_network(prefix)] = serial
        first_oracle.append((parse_network(prefix), serial))
    for query in queries:
        assert last_wins.lookup(query) == oracle_geo_lookup(last_oracle, query)
        assert first_wins.lookup(query) == oracle_routing_lookup(first_oracle, query)


def oracle_overlaps(networks: List[object], prefix) -> bool:
    """The former two-``subnet_of`` overlap scan of ``BgpEvent.affects_prefix``."""
    query = parse_network(prefix)
    return any(
        network.version == query.version
        and (network.subnet_of(query) or query.subnet_of(network))
        for network in networks
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_prefix_overlap_matches_the_subnet_scan(seed):
    registrations, queries = _fuzz_case(seed)
    index: PrefixIndex[bool] = PrefixIndex()
    for prefix, _value in registrations:
        index[prefix] = True
    networks = [parse_network(prefix) for prefix, _value in registrations]
    rng = random.Random(seed)
    hits = 0
    for address in queries:
        lengths = V4_LENGTHS if parse_ip(address).version == 4 else V6_LENGTHS
        prefix = f"{address}/{rng.choice(lengths)}"
        expected = oracle_overlaps(networks, prefix)
        assert index.overlaps(prefix) == expected, prefix
        hits += expected
    assert hits
    for prefix, _value in registrations:
        assert index.overlaps(prefix)


def test_prefix_index_edge_lengths_and_misses():
    index: PrefixIndex[str] = PrefixIndex()
    assert index.lookup("10.0.0.1") is None
    index["10.0.0.5/24"] = "v4/24"
    index["10.0.0.7/32"] = "v4/32"
    index["2001:db8::/48"] = "v6/48"
    index["2001:db8::1/128"] = "v6/128"
    assert index.lookup("10.0.0.7") == "v4/32"
    assert index.lookup(ipaddress.ip_address("10.0.0.200")) == "v4/24"
    assert index.lookup("10.0.1.1") is None
    assert index.lookup("2001:db8::1") == "v6/128"
    assert index.lookup("2001:db8:0:ffff::1") == "v6/48"
    assert index.lookup("2001:db9::1") is None
    # The IPv4 and IPv6 default routes cover only their own family.
    index["0.0.0.0/0"] = "v4/0"
    assert index.lookup("192.0.2.1") == "v4/0"
    assert index.lookup("2001:db9::1") is None
    index["::/0"] = "v6/0"
    assert index.lookup("2001:db9::1") == "v6/0"
    # Mapping semantics on an equal (normalized) network.
    index["10.0.0.0/24"] = "replaced"
    assert index.lookup("10.0.0.9") == "replaced"
    assert index.setdefault("10.0.0.1/24", "ignored") == "replaced"


@pytest.fixture(scope="module")
def recorded_world():
    """The small world, built while recording every geolocation registration."""
    prefixes: List[Tuple[object, Location]] = []
    original_prefix = GeoDatabase.register_prefix

    def register_prefix(self, prefix, location):
        prefixes.append((prefix, location))
        original_prefix(self, prefix, location)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(GeoDatabase, "register_prefix", register_prefix)
        world = build_world(ScenarioConfig.small(7))
    return world, prefixes


def test_every_server_of_the_small_world_matches_the_linear_scans(recorded_world):
    world, prefixes = recorded_world
    geo_oracle = {parse_network(prefix): location for prefix, location in prefixes}
    routing_oracle = [(a.network(), a) for a in world.routing_table.announcements()]
    servers = world.all_servers()
    assert len(servers) > 100 and any(server.is_ipv6 for server in servers)
    for server in servers:
        expected = oracle_geo_lookup(geo_oracle, server.ip)
        assert expected is not None
        assert world.geo_database.lookup_ip(server.ip) is expected
        announcement = oracle_routing_lookup(routing_oracle, server.ip)
        assert announcement is not None
        assert world.routing_table.lookup(server.ip) is announcement

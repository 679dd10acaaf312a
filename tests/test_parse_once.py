"""Each address string is parsed once, not once per use.

Servers keep the address parsed at construction, discovery records parse on
first use and remember the answer, and Censys snapshots look world servers up
by their parsed address.  A monkeypatched ``ipaddress.ip_address`` counts
every parse.
"""

from __future__ import annotations

import ipaddress

import pytest

from repro.core.discovery import SOURCE_TLS, DiscoveredIP
from repro.netmodel.geo import world_locations
from repro.netmodel.topology import BackendServer, ServiceEndpoint
from repro.simulation.config import ScenarioConfig
from repro.simulation.world import build_world


@pytest.fixture
def parses(monkeypatch):
    """A list that records every ``ipaddress.ip_address`` argument."""
    calls = []
    real = ipaddress.ip_address

    def counting(value):
        calls.append(value)
        return real(value)

    monkeypatch.setattr(ipaddress, "ip_address", counting)
    return calls


@pytest.mark.parametrize("ip", ("10.0.0.1", "fd00:0:0:0::1"))
def test_server_version_checks_reuse_the_constructor_parse(parses, ip):
    server = BackendServer(
        ip=ip,
        provider="acme",
        location=world_locations()[0],
        asn=65001,
        prefix="10.0.0.0/24",
        endpoints=(ServiceEndpoint("tcp", 443, "HTTPS"),),
    )
    assert parses == [ip]
    version = 6 if ":" in ip else 4
    versions = [(server.ip_version, server.is_ipv6) for _ in range(3)]
    assert versions == [(version, version == 6)] * 3
    assert str(server.address) == server.ip
    assert parses == [ip], "ip_version/is_ipv6 must not parse again"


def test_discovered_ip_parses_at_most_once(parses):
    record = DiscoveredIP("2001:db8::7", "acme", {SOURCE_TLS})
    unread = DiscoveredIP("10.9.9.9", "acme", {SOURCE_TLS})
    assert parses == [], "a record that never asks is never parsed"
    assert [record.is_ipv6 for _ in range(4)] == [True] * 4
    assert parses == ["2001:db8::7"]
    assert unread == DiscoveredIP("10.9.9.9", "acme", {SOURCE_TLS})
    assert parses == ["2001:db8::7"]


def test_censys_snapshot_parses_no_world_server(parses):
    world = build_world(ScenarioConfig.small(7))
    day = world.config.study_period.days()[0]
    del parses[:]
    snapshot = world.censys.snapshot(day)
    assert len(snapshot) > 0
    assert parses == []

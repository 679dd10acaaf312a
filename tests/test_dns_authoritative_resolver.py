"""Tests for authoritative answering and the stub resolver."""

import pytest

from repro.core.discovery import BackendDiscovery
from repro.core.patterns import DomainPattern, PatternSet
from repro.dns.authoritative import AnswerPolicy, AuthoritativeNameServer, AuthoritativeRecord
from repro.dns.resolver import StubResolver, VantagePoint
from repro.dns.zone import RTYPE_A, RTYPE_AAAA
from repro.netmodel.geo import world_locations

LOCATIONS = world_locations()
EU = next(loc for loc in LOCATIONS if loc.continent == "EU")
EU2 = [loc for loc in LOCATIONS if loc.continent == "EU"][1]
US = next(loc for loc in LOCATIONS if loc.continent == "NA")


def _record(name, ip, location):
    return AuthoritativeRecord(name, RTYPE_A, ip, location)


def test_rejects_non_address_records():
    with pytest.raises(ValueError):
        AuthoritativeRecord("a.example", "CNAME", "b.example")


def test_all_policy_returns_everything():
    server = AuthoritativeNameServer()
    server.register(_record("gw.example", "10.0.0.1", EU))
    server.register(_record("gw.example", "10.0.0.2", US))
    answer = server.query("gw.example", RTYPE_A)
    assert {r.address for r in answer} == {"10.0.0.1", "10.0.0.2"}


def test_round_robin_rotates_and_eventually_reveals_all():
    server = AuthoritativeNameServer()
    records = [_record("gw.example", f"10.0.0.{i}", EU) for i in range(1, 9)]
    server.register_many(records, policy=AnswerPolicy.ROUND_ROBIN, window=2)
    seen = set()
    for _ in range(10):
        for record in server.query("gw.example", RTYPE_A):
            seen.add(record.address)
    assert seen == {f"10.0.0.{i}" for i in range(1, 9)}
    # A single query only returns the window.
    assert len(server.query("gw.example", RTYPE_A)) == 2


def test_fresh_copy_answers_from_rotation_zero_and_leaves_the_original_alone():
    server = AuthoritativeNameServer()
    records = [_record("gw.example", f"10.0.0.{i}", EU) for i in range(1, 9)]
    server.register_many(records, policy=AnswerPolicy.ROUND_ROBIN, window=2)
    first = server.query("gw.example", RTYPE_A)
    second = server.query("gw.example", RTYPE_A)
    assert first != second
    copy = server.fresh_copy()
    assert copy.query("gw.example", RTYPE_A) == first
    assert copy.query("gw.example", RTYPE_A) == second
    # The copy's two queries did not move the original's rotation.
    assert server.query("gw.example", RTYPE_A) == [records[2], records[3]]


def test_geo_policy_prefers_client_continent():
    server = AuthoritativeNameServer()
    server.register(_record("gw.example", "10.0.0.1", EU), policy=AnswerPolicy.GEO)
    server.register(_record("gw.example", "10.0.0.2", US), policy=AnswerPolicy.GEO)
    eu_answer = server.query("gw.example", RTYPE_A, client_location=EU2)
    assert {r.address for r in eu_answer} == {"10.0.0.1"}
    us_answer = server.query("gw.example", RTYPE_A, client_location=US)
    assert {r.address for r in us_answer} == {"10.0.0.2"}


def test_geo_policy_falls_back_when_no_local_presence():
    asia = next(loc for loc in LOCATIONS if loc.continent == "AS")
    server = AuthoritativeNameServer()
    server.register(_record("gw.example", "10.0.0.1", EU), policy=AnswerPolicy.GEO)
    answer = server.query("gw.example", RTYPE_A, client_location=asia)
    assert answer


def test_unknown_name_returns_empty():
    server = AuthoritativeNameServer()
    assert server.query("missing.example", RTYPE_A) == []


def test_stub_resolver_merges_retries():
    server = AuthoritativeNameServer()
    records = [_record("gw.example", f"10.0.0.{i}", EU) for i in range(1, 7)]
    server.register_many(records, policy=AnswerPolicy.ROUND_ROBIN, window=2)
    queries = []

    def query(*args, **kwargs):
        queries.append(args)
        return AuthoritativeNameServer.query(server, *args, **kwargs)

    server.query = query
    resolver = StubResolver(server, VantagePoint("eu", EU), retries=3)
    answer = resolver.resolve("gw.example")
    assert len(answer.addresses) >= 4
    assert len(queries) == 3


def test_resolver_rejects_zero_retries():
    server = AuthoritativeNameServer()
    with pytest.raises(ValueError):
        StubResolver(server, VantagePoint("eu", EU), retries=0)


def test_multiple_vantage_points_increase_coverage():
    server = AuthoritativeNameServer()
    server.register(_record("gw.example", "10.0.0.1", EU), policy=AnswerPolicy.GEO)
    server.register(_record("gw.example", "10.0.0.2", US), policy=AnswerPolicy.GEO)
    discovery = BackendDiscovery(PatternSet({"acme": [DomainPattern("acme", r"^gw\.example\.?$")]}))
    single = discovery.discover_from_active_dns(server, [VantagePoint("eu", EU)], ["gw.example"])
    both = discovery.discover_from_active_dns(
        server, [VantagePoint("eu", EU), VantagePoint("us", US)], ["gw.example"]
    )
    assert single.ips("acme") == {"10.0.0.1"}
    assert both.ips("acme") == {"10.0.0.1", "10.0.0.2"}


def test_resolver_resolves_aaaa_separately():
    server = AuthoritativeNameServer()
    server.register(AuthoritativeRecord("gw.example", RTYPE_AAAA, "fd00::1", EU))
    resolver = StubResolver(server, VantagePoint("eu", EU))
    assert resolver.resolve("gw.example", RTYPE_AAAA).addresses == ("fd00::1",)
    assert resolver.resolve("gw.example", RTYPE_A).addresses == ()

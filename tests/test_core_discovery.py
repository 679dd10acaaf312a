"""Tests for multi-source discovery and the DiscoveryResult container."""

from datetime import date

import pytest

from repro.core.discovery import (
    SOURCE_ACTIVE_DNS,
    SOURCE_PASSIVE_DNS,
    SOURCE_TLS,
    BackendDiscovery,
    DiscoveredIP,
    DiscoveryResult,
)
from repro.core.patterns import PatternSet
from repro.dns.authoritative import AnswerPolicy
from repro.dns.passive_db import PassiveDnsDatabase
from repro.dns.resolver import StubResolver
from repro.dns.zone import RTYPE_A, RTYPE_AAAA
from repro.store.codec import dumps_discovery


def test_discovered_ip_merge_rules():
    a = DiscoveredIP("10.0.0.1", "amazon", {SOURCE_TLS}, {"a.iot.eu-west-1.amazonaws.com"})
    b = DiscoveredIP("10.0.0.1", "amazon", {SOURCE_PASSIVE_DNS}, {"b.iot.eu-west-1.amazonaws.com"})
    a.merge(b)
    assert a.sources == {SOURCE_TLS, SOURCE_PASSIVE_DNS}
    assert len(a.domains) == 2
    with pytest.raises(ValueError):
        a.merge(DiscoveredIP("10.0.0.2", "amazon"))


def test_result_add_merges_duplicates():
    result = DiscoveryResult()
    result.add(DiscoveredIP("10.0.0.1", "amazon", {SOURCE_TLS}))
    result.add(DiscoveredIP("10.0.0.1", "amazon", {SOURCE_ACTIVE_DNS}))
    assert result.total_count() == 1
    record = result.records("amazon")[0]
    assert record.sources == {SOURCE_TLS, SOURCE_ACTIVE_DNS}


def test_result_family_views_and_provider_of():
    result = DiscoveryResult()
    result.add(DiscoveredIP("10.0.0.1", "amazon"))
    result.add(DiscoveredIP("fd00::1", "amazon"))
    result.add(DiscoveredIP("10.0.0.2", "google"))
    assert result.ipv4_ips("amazon") == {"10.0.0.1"}
    assert result.ipv6_ips("amazon") == {"fd00::1"}
    assert result.ips() == {"10.0.0.1", "fd00::1", "10.0.0.2"}
    assert result.ips("google") == {"10.0.0.2"}
    assert "10.9.9.9" not in result.ips()
    assert result.providers() == ["amazon", "google"]


def test_result_merge_restrict_copy():
    a = DiscoveryResult()
    a.add(DiscoveredIP("10.0.0.1", "amazon", {SOURCE_TLS}))
    b = DiscoveryResult()
    b.add(DiscoveredIP("10.0.0.2", "google", {SOURCE_PASSIVE_DNS}))
    merged = DiscoveryResult().merge(a).merge(b)
    assert merged.total_count() == 2
    assert a.total_count() == 1
    # merge copies each record, so growing the merged one leaves the source alone.
    merged.records("amazon")[0].sources.add(SOURCE_ACTIVE_DNS)
    assert a.records("amazon")[0].sources == {SOURCE_TLS}


def test_discover_from_passive_dns_uses_patterns_and_time_range():
    db = PassiveDnsDatabase()
    db.add_observation("tenant.iot.eu-west-1.amazonaws.com", "10.0.0.1", date(2022, 2, 1), date(2022, 3, 10))
    db.add_observation("old.iot.eu-west-1.amazonaws.com", "10.0.0.2", date(2020, 1, 1), date(2020, 6, 1))
    db.add_observation("www.unrelated.example", "10.0.0.3", date(2022, 2, 1), date(2022, 3, 1))
    discovery = BackendDiscovery(PatternSet.for_providers())
    result = discovery.discover_from_passive_dns(db, since=date(2022, 2, 28), until=date(2022, 3, 7))
    assert result.ips("amazon") == {"10.0.0.1"}
    assert "10.0.0.3" not in result.ips()
    all_time = discovery.discover_from_passive_dns(db)
    assert all_time.ips("amazon") == {"10.0.0.1", "10.0.0.2"}


def test_discover_from_censys_matches_wildcard_certificates(small_world):
    from repro.core.providers import PROVIDERS

    discovery = BackendDiscovery()
    snapshot = small_world.censys.snapshot(small_world.config.study_period.start)
    result = discovery.discover_from_censys(snapshot)
    # Only providers, never unrelated web hosting.
    known_keys = {spec.key for spec in PROVIDERS}
    assert set(result.providers()).issubset(known_keys)
    assert result.total_count() > 0


def test_combine_unions_sources(small_world):
    discovery = BackendDiscovery()
    period = small_world.config.study_period
    passive = discovery.discover_from_passive_dns(small_world.passive_dns, period.start, period.end)
    active = discovery.discover_from_active_dns(
        small_world.authoritative, small_world.vantage_points, sorted(passive.domains())
    )
    combined = discovery.combine([passive, active])
    assert combined.total_count() >= max(passive.total_count(), active.total_count())
    assert combined.ips() == passive.ips() | active.ips()


def _per_answer_active_dns(discovery, authoritative, vantage_points, domains, retries=2):
    """Active DNS adding one record per answer address (test oracle)."""
    result = DiscoveryResult()
    engine = discovery.pattern_set.engine()
    resolvers = [StubResolver(authoritative, vp, retries=retries) for vp in vantage_points]
    for domain in sorted(set(domains)):
        provider_key = engine.match(domain)
        if provider_key is None:
            continue
        for resolver in resolvers:
            for rtype in (RTYPE_A, RTYPE_AAAA):
                answer = resolver.resolve(domain, rtype)
                for address in answer.addresses:
                    result.add(
                        DiscoveredIP(
                            ip=address,
                            provider_key=provider_key,
                            sources={SOURCE_ACTIVE_DNS},
                            domains={domain},
                        )
                    )
    return result


def test_active_dns_matches_the_per_answer_oracle(small_world):
    discovery = BackendDiscovery()
    servers = (small_world.authoritative.fresh_copy(), small_world.authoritative.fresh_copy())
    domains = sorted({name for name, _rtype in servers[0]._entries})
    # Twice in a row, so the second call starts from advanced rotations.
    for _ in range(2):
        produced = discovery.discover_from_active_dns(
            servers[0], small_world.vantage_points, domains
        )
        expected = _per_answer_active_dns(
            discovery, servers[1], small_world.vantage_points, domains
        )
        assert dumps_discovery(produced) == dumps_discovery(expected)
        assert list(produced.per_provider) == list(expected.per_provider)
        for provider_key, bucket in expected.per_provider.items():
            assert list(produced.per_provider[provider_key]) == list(bucket)
        counters = [
            [(key, entry.query_counter) for key, entry in server._entries.items()]
            for server in servers
        ]
        assert counters[0] == counters[1]
    rotated = {
        entry.policy for entry in servers[0]._entries.values() if entry.query_counter
    }
    assert {AnswerPolicy.GEO, AnswerPolicy.ROUND_ROBIN} <= rotated
    assert any(len(record.domains) > 1 for record in produced.records())

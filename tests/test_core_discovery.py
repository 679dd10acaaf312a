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
from repro.dns.passive_db import PassiveDnsDatabase


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

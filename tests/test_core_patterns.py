"""Tests for domain-pattern generation (Section 3.2 / Appendix A)."""

import re

from hypothesis import given, strategies as st

from repro.core.patterns import (
    PatternSet,
    appendix_table,
    build_patterns,
    censys_string_queries,
    dnsdb_basic_queries,
    dnsdb_flex_query,
)
from repro.core.providers import PROVIDERS, get_provider
from repro.dns.names import SUBDOMAIN_FIXED, build_fqdn, region_label
from repro.netmodel.geo import world_locations


def test_every_provider_has_patterns():
    for spec in PROVIDERS:
        patterns = build_patterns(spec)
        assert patterns
        for pattern in patterns:
            re.compile(pattern.regex)  # must compile


def test_patterns_match_generated_domains():
    engine = PatternSet.for_providers().engine()
    location = world_locations()[0]
    for spec in PROVIDERS:
        scheme = spec.naming
        region = region_label(scheme, location.region_code, location.airport_code)
        if scheme.subdomain_kind == SUBDOMAIN_FIXED:
            domain = scheme.fixed_fqdns[0]
        else:
            domain = build_fqdn(scheme, customer_id="tenant-001", region=region)
        assert engine.match(domain) == spec.key, domain


def test_patterns_reject_unrelated_domains():
    engine = PatternSet.for_providers().engine()
    for domain in (
        "www.example.com",
        "s3.amazonaws.com",
        "maps.googleapis.com",
        "portal.azure.com",
        "shop.aliyuncs.example.org",
    ):
        assert engine.match(domain) is None, domain


def test_amazon_pattern_requires_iot_label():
    engine = PatternSet.for_providers().engine()
    assert engine.matches_provider("tenant.iot.eu-west-1.amazonaws.com", "amazon")
    assert not engine.matches_provider("tenant.s3.eu-west-1.amazonaws.com", "amazon")


def test_google_pattern_is_exact_fqdn():
    engine = PatternSet.for_providers().engine()
    assert engine.matches_provider("mqtt.googleapis.com", "google")
    assert not engine.matches_provider("evil-mqtt.googleapis.com.attacker.example", "google")


def test_patterns_accept_trailing_dot():
    engine = PatternSet.for_providers().engine()
    assert engine.matches_provider("mqtt.googleapis.com.", "google")


def test_dnsdb_flex_queries_end_with_rrtype():
    for spec in PROVIDERS:
        query = dnsdb_flex_query(spec)
        assert query.endswith("/A")
        assert "\\." in query


def test_dnsdb_basic_queries_format():
    google = dnsdb_basic_queries(get_provider("google"))
    assert google[0].startswith("rrset/name/mqtt.googleapis.com")
    tencent = dnsdb_basic_queries(get_provider("tencent"))
    assert tencent == ["rrset/name/*.tencentdevices.com./A"]


def test_censys_string_queries():
    amazon = censys_string_queries(get_provider("amazon"), region_codes=["us-east-1", "us-west-2"])
    assert "*.iot.us-east-1.amazonaws.com" in amazon
    google = censys_string_queries(get_provider("google"))
    assert "mqtt.googleapis.com" in google


def test_appendix_table_covers_all_providers_and_sources():
    rows = appendix_table()
    providers = {row["provider"] for row in rows}
    assert providers == set(p.name for p in PROVIDERS)
    sources = {row["data_source"] for row in rows}
    assert sources == {"DNSDB", "Censys"}


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=20))
def test_customer_wildcard_matches_any_tenant_id(tenant):
    if tenant.startswith("-"):
        tenant = "a" + tenant
    engine = PatternSet.for_providers().engine()
    domain = f"{tenant}.azure-devices.net"
    assert engine.match(domain) == "microsoft"

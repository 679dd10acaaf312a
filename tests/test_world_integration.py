"""Integration tests for the world builder."""

from datetime import timedelta
from ipaddress import IPv4Address

import pytest

from repro.core.providers import PROVIDERS, get_provider
from repro.scan.censys import CensysService
from repro.security.blocklists import (
    CATEGORY_ATTACKS,
    CATEGORY_MALWARE,
    CATEGORY_OPEN_PROXY,
    CATEGORY_PERSONAL,
    Blocklist,
    BlocklistAggregate,
)
from repro.simulation import world as world_module
from repro.simulation.config import ScenarioConfig
from repro.simulation.world import build_world


def test_world_is_deterministic(small_config, small_world):
    other = build_world(small_config)
    assert sorted(s.ip for s in other.all_servers()) == sorted(
        s.ip for s in small_world.all_servers()
    )
    assert len(other.passive_dns) == len(small_world.passive_dns)


def test_every_provider_has_a_deployment(small_world):
    assert set(small_world.provider_keys()) == {spec.key for spec in PROVIDERS}
    for key in small_world.provider_keys():
        assert small_world.deployments[key].servers


def test_server_ips_are_unique(small_world):
    ips = [server.ip for server in small_world.all_servers()]
    assert len(ips) == len(set(ips))


def test_amazon_is_largest_deployment(small_world):
    sizes = {key: len(dep.ipv4_servers()) for key, dep in small_world.deployments.items()}
    assert sizes["amazon"] == max(sizes.values())


def test_restricted_providers_stay_in_their_country(small_world):
    for key in ("baidu", "huawei"):
        assert small_world.deployments[key].countries() == ["CN"]
    assert small_world.deployments["bosch"].continents() == ["EU"]


def test_ipv6_only_where_supported(small_world):
    for spec in PROVIDERS:
        deployment = small_world.deployments[spec.key]
        if not spec.ipv6_supported or spec.base_ipv6_servers == 0:
            assert deployment.ipv6_servers() == []


def test_routing_table_covers_all_servers(small_world):
    for server in small_world.all_servers():
        announcement = small_world.routing_table.lookup(server.ip)
        assert announcement is not None
        assert announcement.origin_asn == server.asn


def test_geo_database_locates_all_servers(small_world):
    for server in small_world.all_servers():
        location = small_world.geo_database.lookup_ip(server.ip)
        assert location is not None


def test_pr_providers_hosted_on_cloud_ases(small_world):
    for key in ("bosch", "sap", "ptc", "siemens", "sierra", "cisco"):
        deployment = small_world.deployments[key]
        for asn in deployment.asns():
            autonomous_system = small_world.as_registry.get(asn)
            assert autonomous_system.is_cloud_or_cdn(), key


def test_di_providers_on_their_own_ases(small_world):
    for key in ("amazon", "microsoft", "google", "ibm"):
        deployment = small_world.deployments[key]
        organization = get_provider(key).organization
        for asn in deployment.asns():
            assert small_world.as_registry.get(asn).organization == organization


def test_active_servers_churn_only_for_churny_providers(small_world):
    period = small_world.config.study_period
    first = {s.ip for s in small_world.active_servers_for_provider("sap", period.start)}
    later = {s.ip for s in small_world.active_servers_for_provider("sap", period.start + timedelta(days=6))}
    assert first != later
    stable_first = {s.ip for s in small_world.active_servers_for_provider("tencent", period.start)}
    stable_later = {
        s.ip for s in small_world.active_servers_for_provider("tencent", period.start + timedelta(days=6))
    }
    assert stable_first == stable_later


def test_each_days_scan_matches_the_active_servers(small_world):
    """A day's Censys snapshot holds that day's active IPv4 servers and the non-IoT hosts."""
    config = small_world.config
    scanned = set(CensysService.SCANNED_PORTS)
    backend_ips = {server.ip for server in small_world.all_servers()}
    non_iot = None
    for day in config.study_period.days():
        active = [server for server in small_world.active_servers(day) if not server.is_ipv6]
        hosts = set(small_world.censys.snapshot(day).records)
        # Every host outside the day's window is a non-IoT host, the same every day.
        others = hosts - {server.ip for server in active}
        assert not others & backend_ips, day
        assert len(others) == config.n_non_iot_hosts, day
        assert non_iot is None or others == non_iot, day
        non_iot = others
        # Every active server with a scanned port open was scanned.
        reachable = {
            server.ip
            for server in active
            if any(endpoint.key in scanned for endpoint in server.endpoints)
        }
        assert reachable <= hosts, day


def test_published_ranges_cover_deployments(small_world):
    assert set(small_world.published_ranges) == {"cisco", "siemens", "microsoft"}
    from repro.netmodel.addressing import ip_in_prefix

    for key, prefixes in small_world.published_ranges.items():
        for server in small_world.deployments[key].servers:
            assert any(ip_in_prefix(server.ip, prefix) for prefix in prefixes)


def test_hitlist_contains_only_ipv6_backend_addresses(small_world):
    servers = small_world.servers_by_ip()
    for address in small_world.hitlist:
        assert address in servers
        assert servers[address].is_ipv6


def test_blocklists_contain_some_backend_ips(small_world):
    backend_ips = [s.ip for s in small_world.all_servers() if not s.is_ipv6]
    listed = small_world.blocklists.check_many(backend_ips)
    assert 0 < len(listed) <= small_world.config.n_blocklisted_backend_ips


def test_bgp_events_do_not_touch_backends(small_world):
    period = small_world.config.study_period
    asns = {s.asn for s in small_world.all_servers()}
    prefixes = sorted({s.prefix for s in small_world.all_servers()})
    affecting = small_world.bgp_events.events_affecting(asns, prefixes, period.start, period.end)
    assert affecting == []


def test_shared_servers_exist_for_google(small_world):
    deployment = small_world.deployments["google"]
    assert any(not server.dedicated_iot for server in deployment.servers)


def test_vantage_points_two_eu_one_us(small_world):
    continents = [vp.location.continent for vp in small_world.vantage_points]
    assert continents.count("EU") == 2
    assert continents.count("NA") == 1


def _randrange_blocklists(builder):
    """The blocklists drawn with ``randrange`` and added as parsed addresses (test oracle)."""
    stream = builder.rng.stream("blocklists")
    lists = [
        Blocklist("open-proxy-list", CATEGORY_OPEN_PROXY),
        Blocklist("malware-tracker", CATEGORY_MALWARE),
        Blocklist("attack-feed", CATEGORY_ATTACKS),
        Blocklist("personal-blocklist", CATEGORY_PERSONAL),
        Blocklist("stale-list", CATEGORY_ATTACKS, well_maintained=False),
    ]
    for blocklist in lists:
        for _ in range(400):
            b, c, d = stream.randrange(16, 32), stream.randrange(256), stream.randrange(1, 255)
            blocklist.add(IPv4Address(0xAC000000 | b << 16 | c << 8 | d))
    backend = [server.address for server in builder._all_ipv4_backend_servers()]
    if backend:
        count = min(builder.config.n_blocklisted_backend_ips, len(backend))
        chosen = stream.sample(backend, count)
        for index, address in enumerate(chosen):
            lists[index % 4].add(address)
    return BlocklistAggregate(lists)


@pytest.mark.parametrize("seed", (3, 11, 29))
def test_blocklists_match_the_randrange_oracle(seed, monkeypatch):
    config = ScenarioConfig.small(seed)
    produced = build_world(config).blocklists.lists(include_unmaintained=True)
    monkeypatch.setattr(world_module._WorldBuilder, "_build_blocklists", _randrange_blocklists)
    expected = build_world(config).blocklists.lists(include_unmaintained=True)
    assert [blocklist.name for blocklist in produced] == [blocklist.name for blocklist in expected]
    for have, want in zip(produced, expected):
        assert have.entries == want.entries
        assert list(have.entries) == list(want.entries)
    # The draws span every listed range, and backend addresses were listed.
    assert sum(len(blocklist) for blocklist in produced) > 5 * 390
    assert any(not entry.startswith("172.") for entry in produced[0].entries)

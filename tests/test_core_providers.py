"""Tests for the provider catalog."""

import pytest

from repro.core.providers import (
    GROUP_CLOUD,
    GROUP_OTHER,
    GROUP_TOP4,
    PROVIDERS,
    STRATEGY_DI,
    STRATEGY_DI_PR,
    STRATEGY_PR,
    get_provider,
    provider_keys,
)


def test_sixteen_providers_in_catalog():
    assert len(PROVIDERS) == 16
    assert len(set(provider_keys())) == 16
    assert len({spec.name for spec in PROVIDERS}) == 16


def test_lookup_by_key_and_name():
    assert get_provider("amazon").name == "Amazon IoT"
    assert get_provider("Amazon IoT").key == "amazon"
    with pytest.raises(KeyError):
        get_provider("nonexistent")


def test_table1_strategies_match_paper():
    expected = {
        "alibaba": STRATEGY_DI,
        "amazon": STRATEGY_DI,
        "baidu": STRATEGY_DI,
        "bosch": STRATEGY_PR,
        "cisco": STRATEGY_PR,
        "fujitsu": STRATEGY_DI,
        "google": STRATEGY_DI,
        "huawei": STRATEGY_DI,
        "ibm": STRATEGY_DI,
        "microsoft": STRATEGY_DI,
        "oracle": STRATEGY_DI_PR,
        "ptc": STRATEGY_PR,
        "sap": STRATEGY_PR,
        "siemens": STRATEGY_PR,
        "sierra": STRATEGY_PR,
        "tencent": STRATEGY_DI,
    }
    for key, strategy in expected.items():
        assert get_provider(key).strategy == strategy


def test_nine_di_and_six_pr_providers():
    di = [s for s in PROVIDERS if s.strategy == STRATEGY_DI]
    pr = [s for s in PROVIDERS if s.strategy == STRATEGY_PR]
    assert len(di) == 9
    assert len(pr) == 6


def test_groups_partition_catalog():
    groups = {
        group: [spec for spec in PROVIDERS if spec.group == group]
        for group in (GROUP_TOP4, GROUP_CLOUD, GROUP_OTHER)
    }
    total = sum(len(v) for v in groups.values())
    assert total == len(PROVIDERS)
    assert len(groups[GROUP_TOP4]) == 4
    assert len(groups[GROUP_CLOUD]) == 6
    assert len(groups[GROUP_OTHER]) == 6


def test_every_provider_supports_mqtt_or_agnostic():
    for spec in PROVIDERS:
        protocols = set(spec.documented_protocol_names())
        assert protocols & {"MQTT", "MQTTS", "Agnostic"}, spec.name


def test_pr_providers_name_cloud_hosts():
    for spec in PROVIDERS:
        if spec.strategy in (STRATEGY_PR, STRATEGY_DI_PR):
            assert spec.cloud_hosts


def test_paper_specific_behaviours():
    assert get_provider("google").uses_sni
    assert 8883 in get_provider("amazon").client_cert_ports
    assert get_provider("amazon").uses_anycast and get_provider("siemens").uses_anycast
    for key in ("cisco", "siemens", "microsoft"):
        assert get_provider(key).publishes_ip_ranges
    for key in ("baidu", "huawei"):
        assert get_provider(key).restrict_countries == ("CN",)
    assert not get_provider("microsoft").ipv6_supported


def test_documented_ports_nonempty_and_sorted():
    for spec in PROVIDERS:
        ports = spec.documented_ports()
        assert ports == sorted(ports)
        assert ports

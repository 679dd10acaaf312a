"""Tests for the ISP traffic analyses (Section 5 building blocks)."""

from datetime import date, datetime

import pytest
from hypothesis import given, strategies as st

from repro.core.traffic import (
    EmpiricalDistribution,
    ScannerExclusion,
    activity_timeseries,
    daily_active_lines,
    direction_ratio_timeseries,
    mean_direction_ratio,
    overall_visibility,
    per_subscriber_daily_volume,
    per_subscriber_daily_volume_by_port,
    per_subscriber_daily_volume_by_provider,
    port_mix,
    region_crossing,
    subscriber_lines_per_provider,
    tls_only_subscriber_loss,
    top_ports_by_volume,
    visibility_per_provider,
    volume_timeseries,
)
from repro.core.discovery import DiscoveredIP, DiscoveryResult
from repro.flows.anonymize import AnonymizationMap
from repro.flows.flowtable import FlowTable
from repro.flows.netflow import make_flow

DAY = date(2022, 2, 28)
ANON = AnonymizationMap.build()


def _flow(subscriber, server_ip, provider="amazon", port=8883, down=5000.0, up=1000.0,
          continent="EU", region="eu-west-1", hour=12, ip_version=4, transport="tcp"):
    return make_flow(
        timestamp=datetime(DAY.year, DAY.month, DAY.day, hour),
        subscriber_id=subscriber,
        subscriber_prefix="p",
        ip_version=ip_version,
        provider_key=provider,
        server_ip=server_ip,
        server_continent=continent,
        server_region=region,
        transport=transport,
        port=port,
        bytes_down=down,
        bytes_up=up,
    )


def _table(*flows):
    return FlowTable.from_records(flows)


def _result(entries):
    result = DiscoveryResult()
    for ip, provider in entries:
        result.add(DiscoveredIP(ip, provider))
    return result


class TestEmpiricalDistribution:
    def test_quantiles_and_fractions(self):
        dist = EmpiricalDistribution([1, 2, 3, 4, 5])
        assert dist.quantile(0.0) == 1
        assert dist.quantile(1.0) == 5
        assert dist.quantile(0.5) == 3
        assert dist.fraction_below(3) == pytest.approx(0.4)
        assert dist.fraction_between(2, 5) == pytest.approx(0.6)

    def test_empty_distribution(self):
        dist = EmpiricalDistribution([])
        assert dist.fraction_below(10) == 0.0
        with pytest.raises(ValueError):
            dist.quantile(0.5)

    @given(st.lists(st.floats(min_value=0, max_value=1e9), min_size=1, max_size=50))
    def test_quantiles_monotone(self, values):
        dist = EmpiricalDistribution(values)
        assert dist.quantile(0.1) <= dist.quantile(0.9)
        assert dist.quantile(0.0) == min(dist.values)
        assert dist.quantile(1.0) == max(dist.values)


class TestScannerExclusion:
    def test_scanner_identified_and_excluded(self):
        backend_ips = {f"10.0.0.{i}" for i in range(1, 101)}
        records = [_flow(1, "10.0.0.1"), _flow(1, "10.0.0.2")]
        records += [_flow(99, f"10.0.0.{i}", down=100.0) for i in range(1, 101)]
        flows = FlowTable.from_records(records)
        exclusion = ScannerExclusion(flows, backend_ips)
        assert exclusion.scanner_lines(threshold=50) == {99}
        assert exclusion.scanner_lines(threshold=200) == set()
        clean = flows.exclude_subscribers(exclusion.scanner_lines(threshold=50))
        assert len(clean) == 2
        assert all(f.subscriber_id != 99 for f in clean)
        assert exclusion.server_coverage(threshold=50) == pytest.approx(2 / 100)

    def test_sweep_monotone_scanner_count(self):
        backend_ips = {f"10.0.0.{i}" for i in range(1, 51)}
        flows = FlowTable.from_records(_flow(7, f"10.0.0.{i}") for i in range(1, 51))
        exclusion = ScannerExclusion(flows, backend_ips)
        points = exclusion.sweep([10, 20, 100])
        counts = [p.scanner_line_count for p in points]
        assert counts == sorted(counts, reverse=True)

    def test_flows_to_unknown_ips_ignored(self):
        exclusion = ScannerExclusion(_table(_flow(1, "192.0.2.1")), {"10.0.0.1"})
        assert exclusion.contacts_per_line() == {}
        assert exclusion.server_coverage(10) == 0.0


def test_visibility_per_provider_counts():
    result = _result([("10.0.0.1", "amazon"), ("10.0.0.2", "amazon"), ("fd00::1", "amazon")])
    flows = _table(_flow(1, "10.0.0.1"), _flow(2, "fd00::1", ip_version=6))
    rows = visibility_per_provider(flows, result, ANON)
    row = rows[0]
    assert row.label == "T1"
    assert row.ipv4_visible == 1 and row.ipv4_total == 2
    assert row.ipv6_visible == 1 and row.ipv6_total == 1
    assert row.ipv4_fraction == pytest.approx(0.5)
    assert overall_visibility(flows, result, 4) == pytest.approx(0.5)


def test_tls_only_subscriber_loss():
    full = _result([("10.0.0.1", "google"), ("10.0.0.2", "google")])
    tls_only = _result([("10.0.0.2", "google")])
    flows = _table(_flow(1, "10.0.0.1", provider="google"), _flow(2, "10.0.0.2", provider="google"))
    rows = tls_only_subscriber_loss(flows, full, tls_only, ANON)
    assert len(rows) == 1
    assert rows[0].label == "T3"
    assert rows[0].decrease_fraction == pytest.approx(0.5)
    lines = subscriber_lines_per_provider(flows, full.ips())
    assert lines[("google", 4)] == 2


def test_activity_and_volume_timeseries():
    flows = _table(
        _flow(1, "10.0.0.1", hour=10),
        _flow(2, "10.0.0.1", hour=10),
        _flow(1, "10.0.0.1", hour=20, down=20000.0),
    )
    activity = activity_timeseries(flows, ANON)
    assert activity["T1"][datetime(2022, 2, 28, 10)] == 2
    volume = volume_timeseries(flows, ANON, sampling_ratio=2)
    assert volume["T1"][datetime(2022, 2, 28, 20)] == pytest.approx(40000.0)
    ratios = direction_ratio_timeseries(flows, ANON)
    assert ratios["T1"][datetime(2022, 2, 28, 10)] == pytest.approx(5.0)
    overall = mean_direction_ratio(flows, ANON)
    assert overall["T1"] > 1.0


def test_activity_timeseries_min_lines_filter():
    flows = _table(_flow(1, "10.0.0.1"))
    assert activity_timeseries(flows, ANON, min_lines_per_hour=5) == {}


def test_port_mix_and_top_ports():
    flows = _table(
        _flow(1, "10.0.0.1", port=8883, down=7000.0),
        _flow(1, "10.0.0.1", port=443, down=3000.0),
    )
    mix = port_mix(flows, ANON)
    assert set(mix["T1"]) == {"TCP/8883 (MQTTS)", "TCP/443 (HTTPS)"}
    assert mix["T1"]["TCP/8883 (MQTTS)"] > mix["T1"]["TCP/443 (HTTPS)"]
    assert abs(sum(mix["T1"].values()) - 1.0) < 1e-9
    assert top_ports_by_volume(flows, top_n=1) == ["TCP/8883 (MQTTS)"]


def test_per_subscriber_daily_volumes():
    flows = _table(
        _flow(1, "10.0.0.1", down=1000.0, up=200.0),
        _flow(1, "10.0.0.1", down=2000.0, up=300.0),
        _flow(2, "10.0.0.2", provider="google", down=500.0, up=100.0),
    )
    down, up = per_subscriber_daily_volume(flows, DAY)
    assert len(down) == 2 and len(up) == 2
    assert down.quantile(1.0) == pytest.approx(3000.0)
    by_provider = per_subscriber_daily_volume_by_provider(flows, DAY, ANON)
    assert set(by_provider) == {"T1", "T3"}
    by_port = per_subscriber_daily_volume_by_port(flows, DAY, top_n=1)
    assert "Other" in by_port or len(by_port) == 1


def test_region_crossing_categories():
    flows = _table(
        _flow(1, "10.0.0.1", continent="EU"),
        _flow(2, "10.0.0.2", continent="NA", region="us-east-1"),
        _flow(3, "10.0.0.1", continent="EU"),
        _flow(3, "10.0.0.2", continent="NA", region="us-east-1"),
        _flow(4, "10.0.0.3", continent="AS", region="cn-north-1"),
    )
    report = region_crossing(flows)
    assert report.lines_total == 4
    assert report.category_fraction("Europe only") == pytest.approx(0.25)
    assert report.category_fraction("US only") == pytest.approx(0.25)
    assert report.category_fraction("EU & US") == pytest.approx(0.25)
    assert report.category_fraction("Asia") == pytest.approx(0.25)
    assert abs(sum(report.line_categories.values()) - 1.0) < 1e-9
    assert abs(sum(report.traffic_by_continent.values()) - 1.0) < 1e-9


def test_daily_active_lines():
    flows = _table(_flow(1, "10.0.0.1"), _flow(2, "10.0.0.1", ip_version=6))
    assert daily_active_lines(flows) == {DAY: 2}
    assert daily_active_lines(flows, ip_version=6) == {DAY: 1}

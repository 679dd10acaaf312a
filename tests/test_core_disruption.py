"""Tests for the disruption analyses (outage impact, BGP and blocklist exposure)."""

from datetime import date, datetime

import pytest

from repro.core.discovery import DiscoveredIP, DiscoveryResult
from repro.core.disruption import (
    GROUP_ALL,
    GROUP_EU,
    GROUP_US_EAST,
    bgp_exposure,
    blocklist_exposure,
    outage_impact,
)
from repro.routing.bgp import Announcement, RoutingTable
from repro.routing.events import BgpEvent, BgpEventFeed, EventKind
from repro.security.blocklists import Blocklist, BlocklistAggregate, CATEGORY_MALWARE
from repro.simulation.clock import StudyPeriod

from flowrows import from_records, make_flow


def _flow(hour, day=7, region="us-east-1", continent="NA", down=1000.0, subscriber=1):
    return make_flow(
        timestamp=datetime(2021, 12, day, hour),
        subscriber_id=subscriber,
        subscriber_prefix="p",
        ip_version=4,
        provider_key="amazon",
        server_ip="10.0.0.1" if region == "us-east-1" else "10.0.1.1",
        server_continent=continent,
        server_region=region,
        transport="tcp",
        port=8883,
        bytes_down=down,
        bytes_up=down / 5,
    )


def test_outage_impact_detects_traffic_drop():
    flows = []
    # Baseline days: steady 1000 bytes per hour from us-east-1 and 3000 from EU.
    for day in range(3, 7):
        for hour in (16, 17, 18):
            flows.append(_flow(hour, day=day, down=1000.0, subscriber=day))
            flows.append(_flow(hour, day=day, region="eu-west-1", continent="EU", down=3000.0, subscriber=day))
    # Outage day: us-east traffic halves.
    for hour in (16, 17, 18):
        flows.append(_flow(hour, day=7, down=450.0, subscriber=99))
        flows.append(_flow(hour, day=7, region="eu-west-1", continent="EU", down=3000.0, subscriber=99))
    window = (datetime(2021, 12, 7, 16), datetime(2021, 12, 7, 19))
    baseline = (datetime(2021, 12, 3), datetime(2021, 12, 7))
    report = outage_impact(from_records(flows), "amazon", window, baseline)
    assert report.drop_vs_previous_week(GROUP_US_EAST) == pytest.approx(0.55, abs=0.01)
    assert report.drop_vs_previous_week(GROUP_EU) == pytest.approx(0.0)
    assert report.min_traffic_during_outage(GROUP_US_EAST) == pytest.approx(450.0)
    assert report.traffic_series[GROUP_ALL]
    assert report.line_series[GROUP_US_EAST]


def test_outage_impact_ignores_other_providers():
    flows = from_records([_flow(16)])
    report = outage_impact(flows, "google", (datetime(2021, 12, 7, 16), datetime(2021, 12, 7, 19)))
    assert not report.traffic_series[GROUP_ALL]


def test_bgp_exposure_counts_and_matching():
    table = RoutingTable()
    table.announce(Announcement("10.0.0.0/24", 65001, "Amazon"))
    result = DiscoveryResult()
    result.add(DiscoveredIP("10.0.0.1", "amazon"))
    period = StudyPeriod(date(2022, 2, 28), date(2022, 3, 7))
    feed = BgpEventFeed(
        [
            BgpEvent(EventKind.BGP_LEAK, date(2022, 3, 1), asn=64999, prefix="172.16.0.0/24"),
            BgpEvent(EventKind.AS_OUTAGE, date(2022, 3, 2), asn=64998),
        ]
    )
    report = bgp_exposure(feed, result, table, period)
    assert report.counts_by_kind[EventKind.BGP_LEAK] == 1
    assert not report.any_backend_affected
    # An event touching the backend prefix is detected.
    feed.add(BgpEvent(EventKind.POSSIBLE_HIJACK, date(2022, 3, 3), asn=64000, prefix="10.0.0.0/25"))
    affected_report = bgp_exposure(feed, result, table, period)
    assert affected_report.any_backend_affected


def test_blocklist_exposure_groups_by_provider():
    result = DiscoveryResult()
    result.add(DiscoveredIP("10.0.0.1", "baidu"))
    result.add(DiscoveredIP("10.0.0.2", "microsoft"))
    result.add(DiscoveredIP("10.0.0.3", "google"))
    aggregate = BlocklistAggregate(
        [Blocklist("malware", CATEGORY_MALWARE, {"10.0.0.1", "10.0.0.2"})]
    )
    report = blocklist_exposure(aggregate, result)
    assert report.total_listed_ips == 2
    assert report.providers_affected() == ["baidu", "microsoft"]
    assert report.category_counts() == {CATEGORY_MALWARE: 2}

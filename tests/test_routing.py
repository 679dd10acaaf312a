"""Tests for the routing substrate: prefix-to-AS table and BGP events."""

from datetime import date

from repro.routing.bgp import Announcement, RoutingTable
from repro.routing.events import BgpEvent, BgpEventFeed, EventKind


class TestRoutingTable:
    def test_longest_prefix_match(self):
        table = RoutingTable()
        table.announce(Announcement("10.0.0.0/8", 65001, "Org A"))
        table.announce(Announcement("10.1.0.0/16", 65002, "Org B"))
        assert table.lookup("10.1.2.3").origin_asn == 65002
        assert table.lookup("10.2.0.1").origin_asn == 65001
        assert table.lookup("192.0.2.1") is None

    def test_duplicate_announcements_ignored(self):
        table = RoutingTable()
        table.announce(Announcement("10.0.0.0/24", 65001))
        table.announce(Announcement("10.0.0.0/24", 65001))
        assert len(table.announcements()) == 1

    def test_ipv6_lookup(self):
        table = RoutingTable()
        table.announce(Announcement("fd00::/56", 65010))
        assert table.lookup("fd00::1").origin_asn == 65010
        assert table.lookup("10.0.0.1") is None


class TestBgpEvents:
    def test_window_and_kind_filters(self):
        feed = BgpEventFeed(
            [
                BgpEvent(EventKind.BGP_LEAK, date(2022, 3, 1), asn=65001),
                BgpEvent(EventKind.AS_OUTAGE, date(2022, 3, 2), asn=65002),
                BgpEvent(EventKind.AS_OUTAGE, date(2022, 4, 1), asn=65003),
            ]
        )
        assert len(feed.events(date(2022, 2, 28), date(2022, 3, 7))) == 2
        assert len(feed.events(kind=EventKind.AS_OUTAGE)) == 2
        counts = feed.count_by_kind(date(2022, 2, 28), date(2022, 3, 7))
        assert counts[EventKind.BGP_LEAK] == 1

    def test_events_affecting_asn_and_prefix(self):
        feed = BgpEventFeed(
            [
                BgpEvent(EventKind.POSSIBLE_HIJACK, date(2022, 3, 1), asn=65099, prefix="10.0.0.0/24"),
                BgpEvent(EventKind.POSSIBLE_HIJACK, date(2022, 3, 1), asn=64999, prefix="172.16.0.0/24"),
            ]
        )
        affected = feed.events_affecting({65099}, ["192.0.2.0/24"])
        assert len(affected) == 1
        affected_by_prefix = feed.events_affecting(set(), ["10.0.0.0/25"])
        assert len(affected_by_prefix) == 1
        assert feed.events_affecting({1}, ["198.51.100.0/24"]) == []

"""Routing substrate: prefix announcements and longest-prefix-match lookup
(RouteViews-style prefix-to-AS mapping) and a BGPStream-like event feed.
Anycast is a per-server flag (``BackendServer.anycast``), not a routing model."""

from repro.routing.bgp import Announcement, RoutingTable
from repro.routing.events import BgpEvent, BgpEventFeed, EventKind

__all__ = [
    "Announcement",
    "RoutingTable",
    "BgpEvent",
    "BgpEventFeed",
    "EventKind",
]

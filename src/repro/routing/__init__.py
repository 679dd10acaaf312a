"""Routing substrate: prefix announcements and longest-prefix-match lookup
(RouteViews-style prefix-to-AS mapping) and a BGPStream-like event feed.
Anycast is not modelled per server: a Table 1 row's ``anycast`` entry is the
provider's ``ProviderSpec.uses_anycast``."""

from repro.routing.bgp import Announcement, RoutingTable
from repro.routing.events import BgpEvent, BgpEventFeed, EventKind

__all__ = [
    "Announcement",
    "RoutingTable",
    "BgpEvent",
    "BgpEventFeed",
    "EventKind",
]

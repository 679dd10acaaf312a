"""Prefix announcements and a longest-prefix-match routing table.

The paper maps each backend IP to its announced prefix and origin AS using the
RouteViews prefix-to-AS dataset (Section 4.3).  The routing table here provides the
same lookup surface: insert announcements, then look up the most specific covering
prefix for an address.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.netmodel.addressing import IPLike, IPNetwork, PrefixIndex, parse_network


@dataclass(frozen=True)
class Announcement:
    """A BGP prefix announcement."""

    prefix: str
    origin_asn: int
    origin_organization: str = ""

    def network(self):
        """Return the parsed network object for the prefix."""
        return parse_network(self.prefix)


class RoutingTable:
    """A longest-prefix-match table over announcements."""

    def __init__(self) -> None:
        # (network, origin AS) -> announcement, in insertion order.
        self._seen: Dict[Tuple[IPNetwork, int], Announcement] = {}
        self._index: PrefixIndex[Announcement] = PrefixIndex()

    def announce(self, announcement: Announcement, network: Optional[IPNetwork] = None) -> None:
        """Insert an announcement; duplicate (prefix, origin) pairs are ignored.

        ``network`` is the announcement's prefix already parsed, when the
        caller holds it; otherwise the prefix text is parsed here.
        """
        if network is None:
            network = announcement.network()
        key = (network, announcement.origin_asn)
        if key in self._seen:
            return
        self._seen[key] = announcement
        # The first announcement of a prefix answers lookups, also when
        # another origin announces the same prefix later (MOAS).
        self._index.setdefault(network, announcement)

    def lookup(self, ip: IPLike) -> Optional[Announcement]:
        """Return the most specific announcement covering an address, if any."""
        return self._index.lookup(ip)

    def announcements(self) -> List[Announcement]:
        """Return every announcement in insertion order."""
        return list(self._seen.values())

"""IP blocklists and FireHOL-style aggregation.

Section 6.2 checks how likely it is that a backend becomes unreachable because its
address appears on a blocklist.  The paper aggregates 67 public blocklists via the
FireHOL project (over 610M IPv4 addresses in Feb 2022) and finds 16 backend IPs on
them, attributed to open proxies/anonymizers, malware, network attacks/spam, and a
personal blocklist.  This module provides the same aggregation and membership-check
surface over synthetic lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.netmodel.addressing import parse_ip

#: Categories used to annotate why an address was listed.
CATEGORY_OPEN_PROXY = "open-proxy"
CATEGORY_MALWARE = "malware"
CATEGORY_ATTACKS = "attacks-spam"
CATEGORY_PERSONAL = "personal"

CATEGORIES = (
    CATEGORY_OPEN_PROXY,
    CATEGORY_MALWARE,
    CATEGORY_ATTACKS,
    CATEGORY_PERSONAL,
)


@dataclass
class Blocklist:
    """A single named blocklist."""

    name: str
    category: str
    entries: Set[str] = field(default_factory=set)
    well_maintained: bool = True

    def add(self, ip: str) -> None:
        """Add an address to the list."""
        self.entries.add(str(parse_ip(ip)))

    def __contains__(self, ip: object) -> bool:
        try:
            return str(parse_ip(str(ip))) in self.entries
        except ValueError:
            return False

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class BlocklistMatch:
    """A membership hit: which list (and category) an address appears on."""

    ip: str
    list_name: str
    category: str


class BlocklistAggregate:
    """A FireHOL-style aggregation of several blocklists.

    Poorly maintained lists can be excluded, as the paper does for one list known
    to produce false positives.
    """

    def __init__(self, blocklists: Iterable[Blocklist] = ()) -> None:
        self._blocklists: List[Blocklist] = list(blocklists)

    def add_list(self, blocklist: Blocklist) -> None:
        """Register a blocklist."""
        self._blocklists.append(blocklist)

    def lists(self, include_unmaintained: bool = False) -> List[Blocklist]:
        """Return registered lists, excluding unmaintained ones by default."""
        return [
            blocklist
            for blocklist in self._blocklists
            if include_unmaintained or blocklist.well_maintained
        ]

    def total_entries(self, include_unmaintained: bool = False) -> int:
        """Total number of (non-deduplicated) entries across lists."""
        return sum(len(blocklist) for blocklist in self.lists(include_unmaintained))

    def check(self, ip: str, include_unmaintained: bool = False) -> List[BlocklistMatch]:
        """Return every list the address appears on."""
        normalized = str(parse_ip(ip))
        matches = []
        for blocklist in self.lists(include_unmaintained):
            # Already normalized: probe the entries directly, without the
            # second parse that ``Blocklist.__contains__`` makes.
            if normalized in blocklist.entries:
                matches.append(BlocklistMatch(normalized, blocklist.name, blocklist.category))
        return matches

    def check_many(
        self, ips: Iterable[str], include_unmaintained: bool = False
    ) -> Dict[str, List[BlocklistMatch]]:
        """Check several addresses; only listed addresses appear in the result."""
        results: Dict[str, List[BlocklistMatch]] = {}
        for ip in ips:
            matches = self.check(ip, include_unmaintained)
            if matches:
                results[matches[0].ip] = matches
        return results

"""A BGPStream-like feed of routing incidents.

Section 6.2 checks whether any BGP leak, possible hijack, or AS outage reported by
Cisco's BGPStream service during the study week affected the discovered backend
prefixes or their origin ASes (it finds 10 leaks, 40 possible hijacks, and 166 AS
outages, none of which touched the backends).  The feed here stores synthetic
events and supports the same "does any event affect these prefixes/ASes?" query.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from datetime import date
from typing import Iterable, List, Optional, Sequence, Set

from repro.netmodel.addressing import NetLike, PrefixIndex


class EventKind(enum.Enum):
    """Kinds of routing incidents reported by the feed."""

    BGP_LEAK = "bgp-leak"
    POSSIBLE_HIJACK = "possible-hijack"
    AS_OUTAGE = "as-outage"


@dataclass(frozen=True)
class BgpEvent:
    """A single routing incident."""

    kind: EventKind
    day: date
    asn: Optional[int] = None
    prefix: Optional[str] = None
    description: str = ""

    def affects_asn(self, asns: Set[int]) -> bool:
        """Return True when the event's AS is one of the given ASes."""
        return self.asn is not None and self.asn in asns

    def affects_prefix(self, prefixes: PrefixIndex) -> bool:
        """Return True when the event's prefix overlaps a network of the index."""
        return self.prefix is not None and prefixes.overlaps(self.prefix)


class BgpEventFeed:
    """A queryable collection of routing incidents."""

    def __init__(self, events: Iterable[BgpEvent] = ()) -> None:
        self._events: List[BgpEvent] = list(events)

    def add(self, event: BgpEvent) -> None:
        """Add an event to the feed."""
        self._events.append(event)

    def events(
        self,
        start: Optional[date] = None,
        end: Optional[date] = None,
        kind: Optional[EventKind] = None,
    ) -> List[BgpEvent]:
        """Return events within [start, end), optionally filtered by kind."""
        selected = []
        for event in self._events:
            if start is not None and event.day < start:
                continue
            if end is not None and event.day >= end:
                continue
            if kind is not None and event.kind != kind:
                continue
            selected.append(event)
        return selected

    def count_by_kind(self, start: Optional[date] = None, end: Optional[date] = None) -> dict:
        """Return a mapping of event kind to the number of events in the window."""
        counts = {kind: 0 for kind in EventKind}
        for event in self.events(start, end):
            counts[event.kind] += 1
        return counts

    def events_affecting(
        self,
        asns: Set[int],
        prefixes: Sequence[NetLike],
        start: Optional[date] = None,
        end: Optional[date] = None,
    ) -> List[BgpEvent]:
        """Return the events in the window that touch any given AS or prefix."""
        # Each prefix is parsed once here, not once per event.
        networks: PrefixIndex[bool] = PrefixIndex()
        for prefix in prefixes:
            networks[prefix] = True
        affected = []
        for event in self.events(start, end):
            if event.affects_asn(asns) or event.affects_prefix(networks):
                affected.append(event)
        return affected

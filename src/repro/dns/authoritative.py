"""Authoritative DNS answering with vantage-point-dependent responses.

Real IoT backends answer DNS queries with a *subset* of their server addresses, and
the subset depends on the resolver's location (geo-DNS) and on load-balancer
rotation (round robin).  This is why the paper performs active resolutions from
three vantage points (two in Europe, one in the US) and observes a ≈17% increase in
address coverage over a single location (Section 3.3).

:class:`AuthoritativeNameServer` models this behaviour: each owner name maps to a
set of address records annotated with the location of the server behind them, plus
an answer policy deciding which subset a particular query sees.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.netmodel.geo import Location
from repro.dns.zone import RTYPE_A, RTYPE_AAAA, normalize_name


class AnswerPolicy(enum.Enum):
    """How an authoritative server selects the records returned for a query."""

    #: Return every record for the name (small record sets).
    ALL = "all"
    #: Return a fixed-size window that rotates with the query counter.
    ROUND_ROBIN = "round-robin"
    #: Return only records whose server location is on the client's continent,
    #: falling back to all records when there is none.
    GEO = "geo"


@dataclass(frozen=True)
class AuthoritativeRecord:
    """One address record owned by the authoritative server."""

    name: str
    rtype: str
    address: str
    location: Optional[Location] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", normalize_name(self.name))
        if self.rtype not in (RTYPE_A, RTYPE_AAAA):
            raise ValueError(f"authoritative records must be A or AAAA, got {self.rtype}")


@dataclass
class _NameEntry:
    policy: AnswerPolicy
    records: List[AuthoritativeRecord] = field(default_factory=list)
    window: int = 4
    query_counter: int = 0


class AuthoritativeNameServer:
    """The authoritative server for all backend domain names in the simulation."""

    def __init__(self, default_policy: AnswerPolicy = AnswerPolicy.ALL, window: int = 4) -> None:
        self._entries: Dict[Tuple[str, str], _NameEntry] = {}
        self._default_policy = default_policy
        self._default_window = window

    def register(
        self,
        record: AuthoritativeRecord,
        policy: Optional[AnswerPolicy] = None,
        window: Optional[int] = None,
    ) -> None:
        """Register an address record, optionally configuring the name's policy."""
        key = (record.name, record.rtype)
        entry = self._entries.get(key)
        if entry is None:
            entry = _NameEntry(
                policy=policy or self._default_policy,
                window=window or self._default_window,
            )
            self._entries[key] = entry
        elif policy is not None:
            entry.policy = policy
        if window is not None:
            entry.window = window
        if record not in entry.records:
            entry.records.append(record)

    def register_many(
        self,
        records: Iterable[AuthoritativeRecord],
        policy: Optional[AnswerPolicy] = None,
        window: Optional[int] = None,
    ) -> None:
        """Register several records under the same policy."""
        for record in records:
            self.register(record, policy=policy, window=window)

    def fresh_copy(self) -> "AuthoritativeNameServer":
        """A copy with the same records and policies and every rotation counter at zero.

        Queries against the copy leave this server's counters untouched, so a
        caller that needs answers independent of earlier queries (the
        vantage-point ablation) resolves against a fresh copy.
        """
        copy = AuthoritativeNameServer(self._default_policy, self._default_window)
        copy._entries = {
            key: _NameEntry(policy=entry.policy, records=list(entry.records), window=entry.window)
            for key, entry in self._entries.items()
        }
        return copy

    def query(
        self,
        name: str,
        rtype: str,
        client_location: Optional[Location] = None,
    ) -> List[AuthoritativeRecord]:
        """Answer a query as seen from a resolver at ``client_location``.

        The answer depends on the name's policy:

        * ``ALL``: every record.
        * ``ROUND_ROBIN``: a window of records that advances by one on every query,
          so repeated resolutions gradually reveal the full set.
        * ``GEO``: only records on the client's continent (falling back to the full
          set when the provider has no presence there), so resolvers at different
          vantage points see different subsets.
        """
        key = (normalize_name(name), rtype)
        entry = self._entries.get(key)
        if entry is None:
            return []
        records = entry.records
        if entry.policy == AnswerPolicy.ALL or len(records) <= 1:
            return list(records)
        if entry.policy == AnswerPolicy.ROUND_ROBIN:
            start = entry.query_counter % len(records)
            entry.query_counter += 1
            window = entry.window
            rotated = records[start:] + records[:start]
            return rotated[:window]
        if entry.policy == AnswerPolicy.GEO:
            if client_location is None:
                return list(records[: entry.window])
            local = [
                record
                for record in records
                if record.location is not None
                and record.location.continent == client_location.continent
            ]
            if not local:
                return list(records[: entry.window])
            # Within the continent, still rotate to model load balancing.
            start = entry.query_counter % len(local)
            entry.query_counter += 1
            rotated = local[start:] + local[:start]
            return rotated[: entry.window]
        raise AssertionError(f"unhandled answer policy {entry.policy}")

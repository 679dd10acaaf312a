"""A DNSDB-like passive DNS database.

Farsight's DNSDB aggregates DNS answers observed by sensors at resolvers around the
globe.  The paper (Appendix A) queries it per provider with *flexible search*
(regular expressions over owner names, with time-range filters) and *basic
search* (left-hand wildcard name patterns).  The union of those searches
over every provider is the set of observations whose owner name some
provider's pattern matches, so the discovery layer iterates the distinct owner
names once (:meth:`PassiveDnsDatabase.iter_names`) and matches each against
every provider's patterns.  The database also supports inverse queries (which
names resolve to a given address), which the validation step uses to decide
whether an address hosts non-IoT services (Section 3.4).

Coverage is intentionally partial: the world builder inserts observations only for
a configurable fraction of (name, address) pairs, mirroring DNSDB's incomplete view
of global DNS traffic (a limitation the paper notes in Section 3.6).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.dns.zone import RTYPE_A, RTYPE_AAAA, normalize_name


@dataclass(frozen=True)
class PassiveDnsRecord:
    """One aggregated passive DNS observation (an rrset member)."""

    rrname: str
    rrtype: str
    rdata: str
    time_first: date
    time_last: date
    count: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "rrname", normalize_name(self.rrname))
        object.__setattr__(self, "rdata", self.rdata.strip().rstrip("."))
        if self.time_last < self.time_first:
            raise ValueError("time_last must not precede time_first")

    def overlaps(self, since: Optional[date], until: Optional[date]) -> bool:
        """Return True when the observation interval intersects [since, until]."""
        if since is not None and self.time_last < since:
            return False
        if until is not None and self.time_first > until:
            return False
        return True


class PassiveDnsDatabase:
    """An in-memory passive DNS store with owner-name iteration and inverse queries."""

    def __init__(self) -> None:
        self._records: List[PassiveDnsRecord] = []
        self._by_name: Dict[str, List[int]] = {}
        self._by_rdata: Dict[str, List[int]] = {}

    # -- ingestion ------------------------------------------------------------------

    def add(self, record: PassiveDnsRecord) -> None:
        """Add an observation to the database."""
        index = len(self._records)
        self._records.append(record)
        self._by_name.setdefault(record.rrname, []).append(index)
        self._by_rdata.setdefault(record.rdata, []).append(index)

    def add_observation(
        self,
        rrname: str,
        rdata: str,
        first_seen: date,
        last_seen: Optional[date] = None,
        count: int = 1,
        rrtype: Optional[str] = None,
    ) -> PassiveDnsRecord:
        """Convenience helper building the record and inferring the rrtype."""
        if rrtype is None:
            rrtype = RTYPE_AAAA if ":" in rdata else RTYPE_A
        record = PassiveDnsRecord(
            rrname=rrname,
            rrtype=rrtype,
            rdata=rdata,
            time_first=first_seen,
            time_last=last_seen or first_seen,
            count=count,
        )
        self.add(record)
        return record

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> List[PassiveDnsRecord]:
        """Return every stored observation."""
        return list(self._records)

    def iter_names(self) -> Iterable[Tuple[str, List[PassiveDnsRecord]]]:
        """Iterate ``(owner name, observations)`` pairs, one per distinct name.

        This is the bulk-classification entry point: consumers that attribute
        names to providers (the discovery layer) classify each distinct owner
        name exactly once instead of regex-scanning the full record list per
        pattern.  Names are yielded in insertion order of their first record.
        """
        for name, indices in self._by_name.items():
            yield name, [self._records[index] for index in indices]

    # -- inverse queries --------------------------------------------------------------

    def inverse_search(
        self,
        rdata: str,
        since: Optional[date] = None,
        until: Optional[date] = None,
    ) -> List[PassiveDnsRecord]:
        """Inverse query: every observation whose answer is the given address."""
        rdata = rdata.strip().rstrip(".")
        results = []
        for index in self._by_rdata.get(rdata, []):
            record = self._records[index]
            if record.overlaps(since, until):
                results.append(record)
        return results

    def domains_for_ip(
        self,
        address: str,
        since: Optional[date] = None,
        until: Optional[date] = None,
    ) -> Set[str]:
        """Return the distinct owner names observed resolving to an address."""
        return {record.rrname for record in self.inverse_search(address, since, until)}

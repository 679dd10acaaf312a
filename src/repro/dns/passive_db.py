"""A DNSDB-like passive DNS database.

Farsight's DNSDB aggregates DNS answers observed by sensors at resolvers around the
globe.  Two query interfaces matter for the paper (Appendix A): *flexible search*
(regular expressions over owner names, with time-range filters) and *basic search*
(left-hand wildcard name patterns).  The database also supports inverse queries
(which names resolve to a given address), which the validation step uses to decide
whether an address hosts non-IoT services (Section 3.4).

Coverage is intentionally partial: the world builder inserts observations only for
a configurable fraction of (name, address) pairs, mirroring DNSDB's incomplete view
of global DNS traffic (a limitation the paper notes in Section 3.6).
"""

from __future__ import annotations

import re
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
    """An in-memory passive DNS store with DNSDB-style query methods."""

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

    # -- DNSDB-style queries ----------------------------------------------------------

    def flex_search(
        self,
        name_regex: str,
        rrtype: Optional[str] = None,
        since: Optional[date] = None,
        until: Optional[date] = None,
    ) -> List[PassiveDnsRecord]:
        """Flexible search: regex over owner names plus optional filters.

        The regex follows DNSDB conventions where names are matched with a trailing
        dot; this implementation accepts patterns written either way by matching
        against both forms.  The regex is evaluated once per *distinct* owner
        name (names repeat heavily in aggregated passive DNS data); results come
        back in insertion order, as before.
        """
        pattern = re.compile(name_regex)
        matched_indices: List[int] = []
        for name, indices in self._by_name.items():
            if pattern.search(name) or pattern.search(name + "."):
                matched_indices.extend(indices)
        results = []
        for index in sorted(matched_indices):
            record = self._records[index]
            if rrtype is not None and record.rrtype != rrtype:
                continue
            if not record.overlaps(since, until):
                continue
            results.append(record)
        return results

    def basic_search(
        self,
        name_pattern: str,
        rrtype: Optional[str] = None,
        since: Optional[date] = None,
        until: Optional[date] = None,
    ) -> List[PassiveDnsRecord]:
        """Basic search: exact owner name or a left-hand wildcard (``*.example.com``)."""
        results = []
        if name_pattern.startswith("*."):
            suffix = normalize_name(name_pattern[2:])

            def matcher(name: str) -> bool:
                return name == suffix or name.endswith("." + suffix)

        else:
            exact = normalize_name(name_pattern)

            def matcher(name: str) -> bool:
                return name == exact

        for record in self._records:
            if not matcher(record.rrname):
                continue
            if rrtype is not None and record.rrtype != rrtype:
                continue
            if not record.overlaps(since, until):
                continue
            results.append(record)
        return results

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

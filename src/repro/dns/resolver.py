"""Recursive stub resolver and measurement vantage points.

The paper performs daily active DNS resolutions for all domains identified via
passive DNS, from three vantage points (two in Europe, one in the US), respecting a
rate limit (Section 3.3, 3.7).  The resolver here queries the authoritative server
with the vantage point's location so geo-DNS answers differ across vantage points,
and repeats queries to progressively uncover round-robin record sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.dns.authoritative import AuthoritativeNameServer
from repro.dns.zone import RTYPE_A, normalize_name
from repro.netmodel.geo import Location


@dataclass(frozen=True)
class VantagePoint:
    """A measurement location from which active resolutions are performed."""

    name: str
    location: Location


@dataclass
class ResolutionAnswer:
    """The outcome of resolving one name from one vantage point."""

    name: str
    rtype: str
    addresses: Tuple[str, ...]
    vantage_point: str


class StubResolver:
    """A stub resolver bound to a vantage point.

    Parameters
    ----------
    authoritative:
        The authoritative server holding all backend names.
    vantage_point:
        Where the resolver is located; forwarded to the authoritative server so
        geo-DNS policies apply.
    retries:
        Number of times a query is repeated per resolution; each retry can surface
        additional round-robin records.  The paper's ten-second pacing between
        queries is a rate-limiting concern without functional impact, so the
        resolver does not model it.
    """

    def __init__(
        self,
        authoritative: AuthoritativeNameServer,
        vantage_point: VantagePoint,
        retries: int = 2,
    ) -> None:
        if retries < 1:
            raise ValueError("retries must be at least 1")
        self._authoritative = authoritative
        self.vantage_point = vantage_point
        self.retries = retries

    def resolve(self, name: str, rtype: str = RTYPE_A) -> ResolutionAnswer:
        """Resolve a single name, merging the answers of all retries."""
        addresses: List[str] = []
        for _ in range(self.retries):
            answer = self._authoritative.query(
                name, rtype, client_location=self.vantage_point.location
            )
            for record in answer:
                if record.address not in addresses:
                    addresses.append(record.address)
        return ResolutionAnswer(
            name=normalize_name(name),
            rtype=rtype,
            addresses=tuple(addresses),
            vantage_point=self.vantage_point.name,
        )

"""IPv6 hitlists.

Unlike IPv4, the IPv6 address space cannot be scanned exhaustively; scanners rely
on *hitlists* of addresses known to be responsive (Gasser et al.).  The paper
augments public hitlists with addresses that showed activity on popular IoT ports
and probes only those.  Coverage of the hitlist directly bounds IPv6 discovery
(Section 3.6), which the world builder models by only placing a configurable
fraction of ground-truth IPv6 servers on the hitlist.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Set

from repro.netmodel.addressing import IPLike, parse_ip


@dataclass
class IPv6Hitlist:
    """A named list of candidate IPv6 addresses to probe."""

    name: str = "ipv6-hitlist"
    addresses: Set[str] = field(default_factory=set)

    def add(self, address: IPLike) -> None:
        """Add an address, as text or parsed, to the hitlist (must be IPv6)."""
        parsed = parse_ip(address)
        if parsed.version != 6:
            raise ValueError(f"{address} is not an IPv6 address")
        self.addresses.add(str(parsed))

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self.addresses))

    def __len__(self) -> int:
        return len(self.addresses)

"""Per-source contribution of discovered addresses (Section 3.5, Figure 3).

For every provider, every discovered address is attributed to the data source that
found it — TLS certificates (Censys / IPv6 scans), passive DNS, active DNS — or to
"multiple sources" when more than one method found it.  The paper plots the
fraction (and absolute number) of addresses per source, separately for IPv4 and
IPv6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.discovery import (
    SOURCE_ACTIVE_DNS,
    SOURCE_IPV6_SCAN,
    SOURCE_PASSIVE_DNS,
    SOURCE_TLS,
    DiscoveryResult,
)

#: Category labels used in Figure 3.
CATEGORY_SCAN = "Censys/Active Meas."
CATEGORY_PASSIVE_DNS = "Passive DNS"
CATEGORY_ACTIVE_DNS = "DNS Res."
CATEGORY_MULTIPLE = "Multiple Sources"

CATEGORIES = (CATEGORY_SCAN, CATEGORY_PASSIVE_DNS, CATEGORY_ACTIVE_DNS, CATEGORY_MULTIPLE)

_SOURCE_TO_CATEGORY = {
    SOURCE_TLS: CATEGORY_SCAN,
    SOURCE_IPV6_SCAN: CATEGORY_SCAN,
    SOURCE_PASSIVE_DNS: CATEGORY_PASSIVE_DNS,
    SOURCE_ACTIVE_DNS: CATEGORY_ACTIVE_DNS,
}


@dataclass
class SourceBreakdown:
    """Counts of discovered addresses per source category for one provider/family."""

    provider_key: str
    ip_version: int
    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        """Total number of discovered addresses."""
        return sum(self.counts.values())

    def fraction(self, category: str) -> float:
        """Fraction of addresses attributed to a category (0 when empty)."""
        if self.total == 0:
            return 0.0
        return self.counts.get(category, 0) / self.total


def source_breakdown(
    result: DiscoveryResult, provider_key: str, ip_version: int
) -> SourceBreakdown:
    """Compute the Figure-3 breakdown for one provider and address family."""
    breakdown = SourceBreakdown(provider_key=provider_key, ip_version=ip_version)
    counts = {category: 0 for category in CATEGORIES}
    for record in result.records(provider_key):
        if (record.is_ipv6 and ip_version != 6) or (not record.is_ipv6 and ip_version != 4):
            continue
        categories = {_SOURCE_TO_CATEGORY[s] for s in record.sources if s in _SOURCE_TO_CATEGORY}
        if len(categories) > 1:
            counts[CATEGORY_MULTIPLE] += 1
        elif categories:
            counts[next(iter(categories))] += 1
    breakdown.counts = counts
    return breakdown


def contribution_table(result: DiscoveryResult) -> List[SourceBreakdown]:
    """Compute breakdowns for every provider and both address families."""
    rows: List[SourceBreakdown] = []
    for provider_key in result.providers():
        for ip_version in (4, 6):
            breakdown = source_breakdown(result, provider_key, ip_version)
            if breakdown.total > 0 or ip_version == 4:
                rows.append(breakdown)
    return rows

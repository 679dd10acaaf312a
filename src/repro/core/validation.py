"""Validation of discovered server IPs (Section 3.4).

Two independent checks are performed:

* **Shared vs. dedicated IPs.**  For every candidate address, all domain names
  observed resolving to it (via passive DNS) are counted; if the number of names
  *not* matching the provider's IoT patterns exceeds a threshold, the address also
  hosts non-IoT services (CDN frontends, multi-service load balancers) and is
  excluded from the traffic analyses, which only consider infrastructure used
  exclusively for IoT.

* **Ground truth.**  A few providers publish (parts of) their backend address
  ranges.  Discovered addresses are compared against those ranges: every discovered
  address must fall inside a published range (precision), and the fraction of the
  published, *actively used* space that was discovered bounds the traffic
  underestimation (the paper reports <1%).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date
from typing import List, Optional, Sequence, Set, Tuple

from repro.core.discovery import DiscoveredIP, DiscoveryResult
from repro.core.patterns import PatternSet
from repro.dns.passive_db import PassiveDnsDatabase
from repro.flows import kernels
from repro.flows.flowtable import FlowTable
from repro.netmodel.addressing import ip_in_prefix

#: Default threshold on the number of non-IoT domains before an IP counts as shared.
DEFAULT_SHARED_THRESHOLD = 10


@dataclass(frozen=True)
class SharedIpRecord:
    """An address excluded because it also serves non-IoT domains."""

    ip: str
    provider_key: str
    non_iot_domain_count: int


@dataclass
class SharedIpClassification:
    """Outcome of the shared-vs-dedicated analysis."""

    threshold: int
    dedicated: DiscoveryResult
    shared: List[SharedIpRecord] = field(default_factory=list)

    def shared_ips(self, provider_key: Optional[str] = None) -> Set[str]:
        """Return the shared addresses (optionally for one provider)."""
        return {
            record.ip
            for record in self.shared
            if provider_key is None or record.provider_key == provider_key
        }

    def shared_count(self) -> int:
        """Number of addresses classified as shared."""
        return len(self.shared)


def classify_shared_ips(
    result: DiscoveryResult,
    passive_dns: PassiveDnsDatabase,
    pattern_set: Optional[PatternSet] = None,
    threshold: int = DEFAULT_SHARED_THRESHOLD,
    since: Optional[date] = None,
    until: Optional[date] = None,
) -> SharedIpClassification:
    """Split discovered addresses into dedicated-IoT and shared addresses.

    Mirrors the methodology of Saidi et al. / Iordanou et al. referenced by the
    paper: count, per candidate address, the domains resolving to it that do not
    match the IoT domain patterns, and flag the address when the count exceeds the
    threshold.
    """
    pattern_set = pattern_set or PatternSet.for_providers()
    engine = pattern_set.engine()
    dedicated = DiscoveryResult(day=result.day)
    shared: List[SharedIpRecord] = []
    for record in result.records():
        names = passive_dns.domains_for_ip(record.ip, since=since, until=until)
        non_iot = [name for name in names if not engine.matches_any(name)]
        if len(non_iot) > threshold:
            shared.append(
                SharedIpRecord(
                    ip=record.ip,
                    provider_key=record.provider_key,
                    non_iot_domain_count=len(non_iot),
                )
            )
            continue
        dedicated.add(
            DiscoveredIP(
                ip=record.ip,
                provider_key=record.provider_key,
                sources=set(record.sources),
                domains=set(record.domains),
            )
        )
    return SharedIpClassification(threshold=threshold, dedicated=dedicated, shared=shared)


@dataclass(frozen=True)
class GroundTruthReport:
    """Comparison of discovered addresses against a provider's published ranges."""

    provider_key: str
    published_prefixes: Tuple[str, ...]
    published_address_count: int
    discovered_count: int
    discovered_inside: int
    discovered_outside: int

    @property
    def precision(self) -> float:
        """Fraction of discovered addresses that fall inside published ranges."""
        if self.discovered_count == 0:
            return 1.0
        return self.discovered_inside / self.discovered_count

    @property
    def all_inside(self) -> bool:
        """True when every discovered address is inside a published range."""
        return self.discovered_outside == 0


def validate_against_ground_truth(
    result: DiscoveryResult,
    provider_key: str,
    published_prefixes: Sequence[str],
) -> GroundTruthReport:
    """Check that discovered addresses fall within the provider's published ranges."""
    discovered = sorted(result.ips(provider_key))
    inside = 0
    for ip in discovered:
        if any(ip_in_prefix(ip, prefix) for prefix in published_prefixes):
            inside += 1
    published_count = 0
    for prefix in published_prefixes:
        # Count addresses conservatively (network size), as the paper does when it
        # reports "more than 12,000 IPv4 addresses" for Microsoft's prefixes.
        from repro.netmodel.addressing import parse_network

        published_count += parse_network(prefix).num_addresses
    return GroundTruthReport(
        provider_key=provider_key,
        published_prefixes=tuple(published_prefixes),
        published_address_count=published_count,
        discovered_count=len(discovered),
        discovered_inside=inside,
        discovered_outside=len(discovered) - inside,
    )


@dataclass(frozen=True)
class TrafficCoverageReport:
    """How much of a provider's actually-active backend traffic the discovery covers."""

    provider_key: str
    active_server_ips: int
    active_discovered: int
    missed_ips: int
    traffic_bytes_total: float
    traffic_bytes_missed: float

    @property
    def underestimation_fraction(self) -> float:
        """Fraction of the provider's traffic volume attributed to missed servers."""
        if self.traffic_bytes_total <= 0:
            return 0.0
        return self.traffic_bytes_missed / self.traffic_bytes_total


def traffic_coverage(
    result: DiscoveryResult,
    provider_key: str,
    table: FlowTable,
) -> TrafficCoverageReport:
    """Quantify the traffic underestimation caused by undiscovered server IPs.

    Only the rows of the given provider are considered; each row adds its
    ``bytes_down + bytes_up`` to its server address, in row order, in one
    grouped kernel pass.  Both totals fold the per-address sums left to
    right in first-appearance order, so they depend on neither the hash seed
    nor the kernel backend.  An "active" server IP is one that exchanges
    traffic with at least one subscriber line during the period.
    """
    discovered = result.ips(provider_key)
    mask = table.mask_code("provider_key", lambda key: key == provider_key)
    bytes_per_ip = table.group_pair_sums("server_ip", "bytes_down", "bytes_up", mask=mask)
    missed = [volume for ip, volume in bytes_per_ip.items() if ip not in discovered]
    return TrafficCoverageReport(
        provider_key=provider_key,
        active_server_ips=len(bytes_per_ip),
        active_discovered=len(bytes_per_ip) - len(missed),
        missed_ips=len(missed),
        traffic_bytes_total=kernels.fold_sum(bytes_per_ip.values()),
        traffic_bytes_missed=kernels.fold_sum(missed),
    )

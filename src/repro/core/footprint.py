"""Footprint characterization of IoT backend deployments (Sections 4.2--4.4, Table 1).

For every provider, the discovered addresses are

* **geolocated** by combining location hints embedded in the domain names (cloud
  region codes, airport codes), geolocation metadata from the scan snapshots, and
  the location of the prefix announcement, resolved by majority vote when sources
  disagree;
* mapped to **prefixes and origin ASes** via the routing table to quantify network
  diversity and to infer the **deployment strategy**: dedicated infrastructure (DI)
  when all addresses are announced by ASes of the provider itself, public cloud /
  CDN resources (PR) when they are announced by cloud or CDN organisations, and
  DI+PR for mixtures;
* summarised into the Table-1 style row: number of ASes, /24 (IPv4) and /56 (IPv6)
  blocks, locations, countries, protocols, and strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.discovery import DiscoveryResult
from repro.core.providers import (
    PROVIDERS,
    STRATEGY_DI,
    STRATEGY_DI_PR,
    STRATEGY_PR,
    ProviderSpec,
    get_provider,
)
from repro.netmodel.addressing import count_slash24, count_slash56
from repro.netmodel.asn import AsRegistry
from repro.netmodel.geo import GeoDatabase, Location, LocationVote, majority_vote
from repro.routing.bgp import RoutingTable
from repro.scan.censys import CensysSnapshot


@dataclass(frozen=True)
class GeolocatedIP:
    """One discovered address with its resolved location and provenance of votes."""

    ip: str
    location: Optional[Location]
    votes: Tuple[LocationVote, ...]
    disagreement: bool


def location_hint_from_domain(domain: str, geo_database: GeoDatabase) -> Optional[Location]:
    """Extract a location hint embedded in a backend domain name.

    Providers embed cloud region codes (``eu-central-1``), airport codes, or zone
    labels in their names; any label that resolves in the geolocation database is
    accepted.
    """
    for label in domain.lower().rstrip(".").split("."):
        by_region = geo_database.lookup_region_code(label)
        if by_region is not None:
            return by_region
        if len(label) == 3:
            by_airport = geo_database.lookup_airport_code(label)
            if by_airport is not None:
                return by_airport
    return None


def geolocate_ip(
    ip: str,
    domains: Iterable[str],
    geo_database: GeoDatabase,
    censys_snapshot: Optional[CensysSnapshot] = None,
) -> GeolocatedIP:
    """Geolocate one address by majority vote over all available hints."""
    votes: List[LocationVote] = []
    for domain in sorted(set(domains)):
        hint = location_hint_from_domain(domain, geo_database)
        if hint is not None:
            votes.append(LocationVote(source=f"domain:{domain}", location=hint))
            break  # One domain hint is enough; further domains repeat the same region.
    if censys_snapshot is not None:
        record = censys_snapshot.get(ip)
        if record is not None and record.location is not None:
            votes.append(LocationVote(source="censys", location=record.location))
    announced = geo_database.lookup_ip(ip)
    if announced is not None:
        votes.append(LocationVote(source="prefix-announcement", location=announced))
    resolved = majority_vote(votes)
    regions = {vote.location.region_code for vote in votes}
    return GeolocatedIP(ip=ip, location=resolved, votes=tuple(votes), disagreement=len(regions) > 1)


@dataclass
class FootprintReport:
    """The Table-1 style characterization of one provider's backend."""

    provider_key: str
    provider_name: str
    as_count: int
    prefix_count: int
    ipv4_count: int
    ipv6_count: int
    slash24_count: int
    slash56_count: int
    location_count: int
    country_count: int
    continents: Tuple[str, ...]
    countries: Tuple[str, ...]
    strategy: str
    documented_protocols: Tuple[str, ...]
    uses_anycast: bool
    locations_by_ip: Dict[str, Optional[Location]] = field(default_factory=dict)
    geolocation_disagreements: int = 0

    @property
    def multi_country(self) -> bool:
        """True when the footprint spans more than one country."""
        return self.country_count > 1

    def servers_per_continent(self) -> Dict[str, int]:
        """Count geolocated addresses per continent."""
        counts: Dict[str, int] = {}
        for location in self.locations_by_ip.values():
            if location is None:
                continue
            counts[location.continent] = counts.get(location.continent, 0) + 1
        return counts


def infer_strategy(
    origin_organizations: Mapping[str, Set[str]],
    provider_organization: str,
    as_registry: AsRegistry,
    asns: Iterable[int],
) -> str:
    """Infer DI / PR / DI+PR from the organisations announcing the discovered space."""
    own = False
    foreign = False
    for asn in asns:
        autonomous_system = as_registry.get(asn)
        if autonomous_system is None:
            continue
        if autonomous_system.organization == provider_organization:
            own = True
        elif autonomous_system.is_cloud_or_cdn():
            foreign = True
        else:
            foreign = True
    if own and foreign:
        return STRATEGY_DI_PR
    if foreign and not own:
        return STRATEGY_PR
    return STRATEGY_DI


def characterize_provider(
    provider_key: str,
    result: DiscoveryResult,
    routing_table: RoutingTable,
    as_registry: AsRegistry,
    geo_database: GeoDatabase,
    censys_snapshot: Optional[CensysSnapshot] = None,
) -> FootprintReport:
    """Produce the footprint report of one provider from its discovered addresses."""
    spec = get_provider(provider_key)
    records = result.records(provider_key)
    ipv4 = [r for r in records if not r.is_ipv6]
    ipv6 = [r for r in records if r.is_ipv6]
    asns: Set[int] = set()
    prefixes: Set[str] = set()
    for record in records:
        announcement = routing_table.lookup(record.ip)
        if announcement is not None:
            asns.add(announcement.origin_asn)
            prefixes.add(announcement.prefix)
    locations_by_ip: Dict[str, Optional[Location]] = {}
    disagreements = 0
    for record in records:
        geolocated = geolocate_ip(record.ip, record.domains, geo_database, censys_snapshot)
        locations_by_ip[record.ip] = geolocated.location
        if geolocated.disagreement:
            disagreements += 1
    located = [loc for loc in locations_by_ip.values() if loc is not None]
    strategy = infer_strategy({}, spec.organization, as_registry, asns)
    return FootprintReport(
        provider_key=provider_key,
        provider_name=spec.name,
        as_count=len(asns),
        prefix_count=len(prefixes),
        ipv4_count=len(ipv4),
        ipv6_count=len(ipv6),
        slash24_count=count_slash24(r.ip for r in ipv4),
        slash56_count=count_slash56(r.ip for r in ipv6),
        location_count=len({loc.region_code for loc in located}),
        country_count=len({loc.country for loc in located}),
        continents=tuple(sorted({loc.continent for loc in located})),
        countries=tuple(sorted({loc.country for loc in located})),
        strategy=strategy,
        documented_protocols=tuple(
            offering.label for offering in spec.protocols
        ),
        uses_anycast=spec.uses_anycast,
        locations_by_ip=locations_by_ip,
        geolocation_disagreements=disagreements,
    )


def characterize_all(
    result: DiscoveryResult,
    routing_table: RoutingTable,
    as_registry: AsRegistry,
    geo_database: GeoDatabase,
    censys_snapshot: Optional[CensysSnapshot] = None,
    providers: Sequence[ProviderSpec] = PROVIDERS,
) -> Dict[str, FootprintReport]:
    """Produce footprint reports for every provider with discovered addresses."""
    reports: Dict[str, FootprintReport] = {}
    for spec in providers:
        if spec.key not in result.providers():
            continue
        reports[spec.key] = characterize_provider(
            spec.key, result, routing_table, as_registry, geo_database, censys_snapshot
        )
    return reports


def continent_distribution(reports: Mapping[str, FootprintReport]) -> Dict[str, float]:
    """Fraction of all geolocated backend servers per continent (Figure 13, right side)."""
    counts: Dict[str, int] = {}
    for report in reports.values():
        for continent, count in report.servers_per_continent().items():
            counts[continent] = counts.get(continent, 0) + count
    total = sum(counts.values())
    if total == 0:
        return {}
    return {continent: counts[continent] / total for continent in sorted(counts)}

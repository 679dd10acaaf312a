"""The world builder: wires every substrate into a coherent synthetic scenario.

A :class:`World` is the measurement environment the discovery pipeline operates on.
It contains ground truth (provider deployments) and the observable reflections of
that truth: authoritative DNS records and passive DNS observations, TLS
certificates exposed to scanners, Censys-like daily snapshots, IPv6 hitlists, a
routing table, blocklists, a BGP event feed, an ISP subscriber population, and the
outage schedule.

The build is a pure function of the :class:`~repro.simulation.config.ScenarioConfig`.
A world holds no flow tables and knows no artifact store: it hands out
workload generators (:meth:`World.workload_generator`), and
:class:`~repro.experiments.context.ExperimentContext` exports, caches and
persists what they generate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date, timedelta
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.providers import (
    CLOUD_AKAMAI_ORGS,
    CLOUD_ORGS,
    PROVIDERS,
    STRATEGY_DI,
    STRATEGY_DI_PR,
    STRATEGY_PR,
    ProviderSpec,
)
from repro.dns.authoritative import AnswerPolicy, AuthoritativeNameServer, AuthoritativeRecord
from repro.dns.names import (
    SUBDOMAIN_CUSTOMER,
    SUBDOMAIN_FIXED,
    SUBDOMAIN_SERVICE,
    build_fqdn,
    region_label,
)
from repro.dns.passive_db import PassiveDnsDatabase
from repro.dns.resolver import VantagePoint
from repro.dns.zone import RTYPE_A, RTYPE_AAAA
from repro.flows.kernels import fold_sum
from repro.flows.subscribers import SubscriberPopulation
from repro.flows.workload import SharedPlans, WorkloadGenerator
from repro.netmodel.addressing import IPAddress, IPNetwork, PrefixAllocator
from repro.netmodel.asn import AsKind, AsRegistry, AutonomousSystem
from repro.netmodel.geo import (
    CONTINENT_ASIA,
    CONTINENT_EUROPE,
    CONTINENT_NORTH_AMERICA,
    GeoDatabase,
    Location,
    world_locations,
)
from repro.netmodel.topology import BackendServer, ProviderDeployment, ServiceEndpoint
from repro.outage.injector import OutageSchedule, aws_us_east_1_outage
from repro.routing.bgp import Announcement, RoutingTable
from repro.routing.events import BgpEvent, BgpEventFeed, EventKind
from repro.scan.censys import CensysService
from repro.scan.certificates import Certificate, make_certificate
from repro.scan.hitlist import IPv6Hitlist
from repro.scan.tls import TlsServerConfig
from repro.security.blocklists import (
    CATEGORY_ATTACKS,
    CATEGORY_MALWARE,
    CATEGORY_OPEN_PROXY,
    CATEGORY_PERSONAL,
    Blocklist,
    BlocklistAggregate,
)
from repro.simulation.clock import StudyPeriod
from repro.simulation.config import ScenarioConfig
from repro.simulation.rng import RngRegistry, stable_hash

#: Continent weights used when spreading servers over a provider's locations;
#: the extra weight on the large North-American regions reproduces the paper's
#: finding that roughly two thirds of backend servers are located in the US.
_CONTINENT_WEIGHTS = {
    CONTINENT_NORTH_AMERICA: 3.0,
    CONTINENT_EUROPE: 1.6,
    CONTINENT_ASIA: 0.8,
}
_DEFAULT_CONTINENT_WEIGHT = 0.4
_US_EAST_BONUS = 4.0  # us-east-1 is by far the largest cloud region.

#: Protocols whose endpoints are TLS-wrapped (certificates observable by scanners).
_TLS_PROTOCOLS = {"MQTTS", "HTTPS", "AMQPS", "AGNOSTIC"}

#: One allocated block of a provider: its text form, origin AS and parsed network.
_Block = Tuple[str, int, IPNetwork]


@dataclass
class World:
    """The complete synthetic measurement environment."""

    config: ScenarioConfig
    rng: RngRegistry
    locations: List[Location]
    geo_database: GeoDatabase
    as_registry: AsRegistry
    routing_table: RoutingTable
    deployments: Dict[str, ProviderDeployment]
    base_counts: Dict[str, int]
    churn_shifts: Dict[str, int]
    authoritative: AuthoritativeNameServer
    passive_dns: PassiveDnsDatabase
    censys: CensysService
    hitlist: IPv6Hitlist
    blocklists: BlocklistAggregate
    bgp_events: BgpEventFeed
    published_ranges: Dict[str, List[str]]
    population: SubscriberPopulation
    outage_schedule: OutageSchedule
    vantage_points: List[VantagePoint]
    iot_domains: Dict[str, List[str]]
    #: Device plans and their first encoding, shared by every workload
    #: generator of this world and built by the first one that generates.
    _device_plans: SharedPlans = field(default_factory=SharedPlans)

    # -- ground-truth views -----------------------------------------------------------

    def provider_keys(self) -> List[str]:
        """Return the provider keys with a deployment in this world."""
        return sorted(self.deployments)

    def all_servers(self) -> List[BackendServer]:
        """Return every backend server in every provider's pool."""
        servers: List[BackendServer] = []
        for key in self.provider_keys():
            servers.extend(self.deployments[key].servers)
        return servers

    def servers_by_ip(self) -> Dict[str, BackendServer]:
        """Return a lookup table of every server keyed by address."""
        return {server.ip: server for server in self.all_servers()}

    def active_servers(self, day: date) -> List[BackendServer]:
        """Return the servers active on a given day (models churn)."""
        return _active_servers(self.deployments, self.base_counts, self.churn_shifts, day)

    def active_servers_for_provider(self, provider_key: str, day: date) -> List[BackendServer]:
        """Return the active servers of one provider on a given day."""
        return [s for s in self.active_servers(day) if s.provider == provider_key]

    def dedicated_deployments(self) -> Dict[str, ProviderDeployment]:
        """Return deployments restricted to servers used exclusively for IoT."""
        dedicated: Dict[str, ProviderDeployment] = {}
        for key, deployment in self.deployments.items():
            filtered = ProviderDeployment(provider=key)
            for server in deployment.servers:
                if server.dedicated_iot:
                    filtered.servers.append(server)
            dedicated[key] = filtered
        return dedicated

    # -- ISP traffic -------------------------------------------------------------------

    def workload_generator(self) -> WorkloadGenerator:
        """Return a workload generator over the dedicated IoT infrastructure.

        Every generator of a world shares one list of device plans and their
        encoding; each gets a fresh ``workload`` registry, because the
        registered scanner stream must start afresh every period, and the
        world's current outage schedule.
        """
        return WorkloadGenerator(
            population=self.population,
            deployments=self.dedicated_deployments(),
            rng=self.rng.spawn("workload"),
            outage_schedule=self.outage_schedule,
            servers_per_device=self.config.servers_per_device,
            volume_sigma=self.config.volume_sigma,
            device_plans=self._device_plans,
        )


def _active_servers(
    deployments: Mapping[str, ProviderDeployment],
    base_counts: Mapping[str, int],
    churn_shifts: Mapping[str, int],
    day: date,
) -> List[BackendServer]:
    """The servers active on ``day``, provider by provider in key order.

    Providers with a non-zero churn rate rotate a window over their server pool:
    consecutive days differ by the churn shift, so differences grow with the
    number of days between snapshots (Figure 4).
    """
    active: List[BackendServer] = []
    for key in sorted(deployments):
        pool = deployments[key].servers
        base = base_counts[key]
        shift = churn_shifts[key]
        if shift == 0 or len(pool) <= base:
            active.extend(pool[:base])
            continue
        offset = (day.toordinal() * shift) % len(pool)
        active.extend(pool[(offset + i) % len(pool)] for i in range(base))
    return active


def build_world(
    config: Optional[ScenarioConfig] = None,
    providers: Sequence[ProviderSpec] = PROVIDERS,
) -> World:
    """Build the synthetic world for a scenario configuration."""
    return _WorldBuilder(config or ScenarioConfig(), providers).build()


class _WorldBuilder:
    """Stateful helper performing the individual build steps."""

    def __init__(self, config: ScenarioConfig, providers: Sequence[ProviderSpec]) -> None:
        self.config = config
        self.providers = list(providers)
        self.rng = RngRegistry(config.seed)
        self.locations = world_locations()
        self.geo_database = GeoDatabase()
        for location in self.locations:
            self.geo_database.register_location(location)
        self.as_registry = AsRegistry()
        self.routing_table = RoutingTable()
        self.ipv4_allocator = PrefixAllocator("10.0.0.0/8")
        self.ipv6_allocator = PrefixAllocator("fd00::/20")
        self.background_allocator = PrefixAllocator("172.16.0.0/12")
        self.authoritative = AuthoritativeNameServer()
        self.passive_dns = PassiveDnsDatabase()
        self.hitlist = IPv6Hitlist(name="iot-ipv6-hitlist")
        self.published_ranges: Dict[str, List[str]] = {}
        self.iot_domains: Dict[str, List[str]] = {}
        self.deployments: Dict[str, ProviderDeployment] = {}
        self.base_counts: Dict[str, int] = {}
        self.churn_shifts: Dict[str, int] = {}
        self._cloud_ases: Dict[str, AutonomousSystem] = {}
        self._provider_ases: Dict[str, List[AutonomousSystem]] = {}
        self._host_counters: Dict[str, int] = {}

    def _next_host_offset(self, prefix: str) -> int:
        """Return the next unused host offset within a prefix (collision-free)."""
        counter = self._host_counters.get(prefix, 0) + 1
        self._host_counters[prefix] = counter
        return counter

    def _register_block(self, network: IPNetwork, asn: int, location: Location) -> str:
        """Announce and geolocate a freshly allocated block; return its text form."""
        prefix = str(network)
        self.routing_table.announce(
            Announcement(prefix, asn, self._organization_for_asn(asn)), network
        )
        self.geo_database.register_prefix(network, location)
        return prefix

    def _assign_address(
        self,
        location: Location,
        prefixes: Dict[Tuple[str, int], List[_Block]],
        ip_version: int,
    ) -> Tuple[str, int, IPAddress]:
        """Pick (allocating more prefixes on demand) an address for a new server.

        Blocks carry their parsed network, so the address is built from an
        integer offset and no prefix or address text is parsed.
        """
        key = (location.region_code, ip_version)
        prefix_list = prefixes.get(key)
        if not prefix_list:
            fallback = [
                entry
                for (_region, family), entries in prefixes.items()
                if family == ip_version
                for entry in entries
            ]
            if fallback:
                prefix_list = fallback
                prefixes[key] = prefix_list
            else:
                prefix_list = next(iter(prefixes.values()))
        capacity = 250 if ip_version == 4 else 10_000
        allocator = self.ipv4_allocator if ip_version == 4 else self.ipv6_allocator
        prefix, asn, network = prefix_list[-1]
        if self._host_counters.get(prefix, 0) >= capacity:
            network = allocator.allocate_prefix(24 if ip_version == 4 else 56)
            prefix = self._register_block(network, asn, location)
            prefix_list.append((prefix, asn, network))
        host_offset = self._next_host_offset(prefix)
        return prefix, asn, allocator.hosts_in(network, 1, start_offset=host_offset)[0]

    # -- top level ----------------------------------------------------------------------

    def build(self) -> World:
        self._register_autonomous_systems()
        for spec in self.providers:
            self._build_provider(spec)
        extra_hosts = self._build_non_iot_hosts()
        censys = CensysService(
            geo_database=self.geo_database,
            host_source=self._censys_host_source,
            extra_hosts=extra_hosts,
            geolocation_error_rate=self.config.geolocation_error_rate,
            location_pool=self.locations,
        )
        self._populate_background_dns()
        blocklists = self._build_blocklists()
        bgp_events = self._build_bgp_events()
        population = SubscriberPopulation.build(
            n_lines=self.config.n_subscriber_lines,
            providers=self.providers,
            rng=self.rng.spawn("population"),
            ipv6_line_fraction=self.config.ipv6_line_fraction,
            iot_household_fraction=self.config.iot_household_fraction,
            n_scanner_lines=self.config.n_scanner_lines,
            n_heavy_lines=self.config.n_heavy_lines,
            isp_prefix_count=self.config.isp_prefix_count,
        )
        outage_schedule = OutageSchedule([aws_us_east_1_outage()])
        vantage_points = self._vantage_points()
        world = World(
            config=self.config,
            rng=self.rng,
            locations=self.locations,
            geo_database=self.geo_database,
            as_registry=self.as_registry,
            routing_table=self.routing_table,
            deployments=self.deployments,
            base_counts=self.base_counts,
            churn_shifts=self.churn_shifts,
            authoritative=self.authoritative,
            passive_dns=self.passive_dns,
            censys=censys,
            hitlist=self.hitlist,
            blocklists=blocklists,
            bgp_events=bgp_events,
            published_ranges=self.published_ranges,
            population=population,
            outage_schedule=outage_schedule,
            vantage_points=vantage_points,
            iot_domains=self.iot_domains,
        )
        return world

    def _censys_host_source(self, day: date) -> List[BackendServer]:
        # The censys service is created before the World object exists, so the host
        # source reads the active window from builder state, which the world shares.
        return _active_servers(self.deployments, self.base_counts, self.churn_shifts, day)

    # -- autonomous systems ---------------------------------------------------------------

    def _register_autonomous_systems(self) -> None:
        for organization in CLOUD_ORGS:
            self._cloud_ases[organization] = self.as_registry.create(
                name=f"{organization} backbone", organization=organization, kind=AsKind.CLOUD
            )
        for organization in CLOUD_AKAMAI_ORGS:
            self._cloud_ases[organization] = self.as_registry.create(
                name=f"{organization} CDN", organization=organization, kind=AsKind.CDN
            )
        for spec in self.providers:
            systems = []
            if spec.strategy in (STRATEGY_DI, STRATEGY_DI_PR):
                for index in range(spec.n_ases):
                    systems.append(
                        self.as_registry.create(
                            name=f"{spec.organization} IoT {index + 1}",
                            organization=spec.organization,
                            kind=AsKind.IOT_BACKEND,
                        )
                    )
            self._provider_ases[spec.key] = systems
        self.as_registry.create("European ISP", "European ISP", AsKind.ISP)

    # -- provider deployments ----------------------------------------------------------------

    def _scaled_count(self, base: int, minimum: int) -> int:
        if base <= 0:
            return 0
        return max(minimum, int(round(base * self.config.scale)))

    def _provider_locations(self, spec: ProviderSpec) -> List[Location]:
        candidates = self.locations
        if spec.restrict_continents:
            candidates = [loc for loc in candidates if loc.continent in spec.restrict_continents]
        if spec.restrict_countries:
            candidates = [loc for loc in candidates if loc.country in spec.restrict_countries]
        if not candidates:
            candidates = list(self.locations)
        count = max(1, min(spec.n_locations, len(candidates)))
        start = stable_hash(f"{spec.key}:locations", len(candidates))
        chosen = [candidates[(start + i) % len(candidates)] for i in range(count)]
        # The largest providers always include the main AWS-style regions so the
        # outage analysis has both a us-east-1 and a European presence.
        if not spec.restrict_continents:
            required = [loc for loc in self.locations if loc.region_code in ("us-east-1", "eu-west-1")]
            for location in required:
                if location not in chosen:
                    chosen.append(location)
        return chosen

    def _location_weight(self, location: Location) -> float:
        weight = _CONTINENT_WEIGHTS.get(location.continent, _DEFAULT_CONTINENT_WEIGHT)
        if location.region_code == "us-east-1":
            weight *= _US_EAST_BONUS
        return weight

    def _spread_servers(self, spec: ProviderSpec, total: int, locations: List[Location]) -> List[Location]:
        """Return a per-server location assignment of length ``total``."""
        weights = [self._location_weight(location) for location in locations]
        weight_sum = fold_sum(weights)
        counts = [max(0, int(round(total * weight / weight_sum))) for weight in weights]
        # Fix rounding drift while keeping at least one server in the first location.
        while sum(counts) < total:
            counts[counts.index(min(counts))] += 1
        while sum(counts) > total:
            index = counts.index(max(counts))
            if counts[index] > 0:
                counts[index] -= 1
        assignment: List[Location] = []
        for location, count in zip(locations, counts):
            assignment.extend([location] * count)
        # Ensure length exactly matches.
        while len(assignment) < total:
            assignment.append(locations[0])
        return assignment[:total]

    def _build_provider(self, spec: ProviderSpec) -> None:
        deployment = ProviderDeployment(provider=spec.key)
        n_ipv4 = self._scaled_count(spec.base_ipv4_servers, self.config.min_ipv4_servers)
        n_ipv6 = 0
        if spec.ipv6_supported and spec.base_ipv6_servers > 0:
            n_ipv6 = self._scaled_count(spec.base_ipv6_servers, self.config.min_ipv6_servers)
        shift = 0
        pool_v4 = n_ipv4
        if spec.churn_rate > 0:
            shift = max(1, int(round(spec.churn_rate * n_ipv4)))
            pool_v4 = n_ipv4 + 7 * shift
        self.base_counts[spec.key] = n_ipv4 + n_ipv6
        self.churn_shifts[spec.key] = shift

        locations = self._provider_locations(spec)
        v4_assignment = self._spread_servers(spec, pool_v4, locations)
        v6_assignment = self._spread_servers(spec, n_ipv6, locations) if n_ipv6 else []

        prefixes = self._allocate_prefixes(spec, locations, pool_v4, n_ipv6)
        total_pool = len(v4_assignment) + len(v6_assignment)
        # Quota-based draws keep the per-provider proportions exact even for tiny
        # deployments: at least one server is always certificate-exposed (when the
        # provider's visibility is non-zero) and at least one (domain, address)
        # binding is always observable in passive DNS.
        exposed_positions = self._quota_positions(
            f"{spec.key}:cert",
            total_pool,
            spec.censys_visibility,
            # Providers that are essentially invisible to certificate scans (SNI-only
            # frontends such as Google's) must stay invisible even at tiny scales.
            minimum_one=spec.censys_visibility >= 0.05,
        )
        stale_positions = self._quota_positions(
            f"{spec.key}:stale", total_pool, spec.stale_dns_fraction, minimum_one=False
        )
        pdns_positions = self._quota_positions(f"{spec.key}:pdns", total_pool, spec.passive_dns_coverage)
        servers: List[BackendServer] = []
        dns_category: Dict[str, str] = {}
        position = 0
        for index, location in enumerate(v4_assignment):
            server = self._build_server(
                spec, location, prefixes, index, ip_version=4,
                cert_exposed=position in exposed_positions,
            )
            dns_category[server.ip] = self._dns_category(position, stale_positions, pdns_positions)
            servers.append(server)
            position += 1
        for index, location in enumerate(v6_assignment):
            server = self._build_server(
                spec, location, prefixes, index, ip_version=6,
                cert_exposed=position in exposed_positions,
            )
            dns_category[server.ip] = self._dns_category(position, stale_positions, pdns_positions)
            servers.append(server)
            position += 1
        deployment.servers = servers
        self.deployments[spec.key] = deployment

        self._register_dns(spec, deployment, dns_category)
        self._register_hitlist(spec, deployment)
        self._register_published_ranges(spec, deployment)

    @staticmethod
    def _quota_positions(seed: str, total: int, fraction: float, minimum_one: bool = True) -> Set[int]:
        """Deterministically select round(fraction * total) positions out of ``total``."""
        if total <= 0 or fraction <= 0:
            return set()
        count = int(round(fraction * total))
        if minimum_one:
            count = max(1, count)
        count = min(count, total)
        ranked = sorted(range(total), key=lambda i: stable_hash(f"{seed}:{i}"))
        return set(ranked[:count])

    @staticmethod
    def _dns_category(position: int, stale_positions: Set[int], pdns_positions: Set[int]) -> str:
        if position in stale_positions:
            return "stale"
        if position in pdns_positions:
            return "covered"
        return "uncovered"

    def _allocate_prefixes(
        self, spec: ProviderSpec, locations: List[Location], n_ipv4: int, n_ipv6: int
    ) -> Dict[Tuple[str, int], List[_Block]]:
        """Allocate prefixes per (region, family); return {(region, family): [block]}."""
        per_location_v4 = max(1, (n_ipv4 // max(1, len(locations))) + 1)
        prefixes: Dict[Tuple[str, int], List[_Block]] = {}
        cloud_cycle = list(spec.cloud_hosts) or [None]
        for loc_index, location in enumerate(locations):
            needed = max(1, (per_location_v4 + 253) // 254)
            v4_list: List[_Block] = []
            for block in range(needed):
                network = self.ipv4_allocator.allocate_prefix(24)
                asn = self._origin_asn(spec, cloud_cycle, loc_index + block)
                v4_list.append((self._register_block(network, asn, location), asn, network))
            prefixes[(location.region_code, 4)] = v4_list
            if n_ipv6 > 0:
                network6 = self.ipv6_allocator.allocate_prefix(56)
                asn6 = self._origin_asn(spec, cloud_cycle, loc_index)
                prefix6 = self._register_block(network6, asn6, location)
                prefixes[(location.region_code, 6)] = [(prefix6, asn6, network6)]
        return prefixes

    def _origin_asn(self, spec: ProviderSpec, cloud_cycle: List[Optional[str]], index: int) -> int:
        if spec.strategy == STRATEGY_PR:
            organization = cloud_cycle[index % len(cloud_cycle)]
            return self._cloud_ases[organization].asn
        if spec.strategy == STRATEGY_DI_PR:
            # Mostly dedicated infrastructure, with a share hosted on the CDN/cloud.
            if index % 4 == 3 and cloud_cycle[0] is not None:
                return self._cloud_ases[cloud_cycle[0]].asn
            systems = self._provider_ases[spec.key]
            return systems[index % len(systems)].asn
        systems = self._provider_ases[spec.key]
        return systems[index % len(systems)].asn

    def _organization_for_asn(self, asn: int) -> str:
        autonomous_system = self.as_registry.get(asn)
        return autonomous_system.organization if autonomous_system else ""

    def _build_server(
        self,
        spec: ProviderSpec,
        location: Location,
        prefixes: Mapping[Tuple[str, int], List[_Block]],
        index: int,
        ip_version: int,
        cert_exposed: bool = True,
    ) -> BackendServer:
        prefix, asn, address = self._assign_address(location, prefixes, ip_version)
        ip = str(address)

        dedicated = True
        if spec.shared_web_fraction > 0:
            dedicated = stable_hash(f"{spec.key}:{ip}:shared", 1000) >= int(
                spec.shared_web_fraction * 1000
            )
        domains = self._domains_for_server(spec, location, index, dedicated)
        endpoints = self._endpoints_for_server(spec, domains, cert_exposed)
        cloud_host = None
        if spec.strategy == STRATEGY_PR:
            cloud_host = spec.cloud_hosts[index % len(spec.cloud_hosts)]
        elif spec.strategy == STRATEGY_DI_PR and index % 4 == 3:
            cloud_host = spec.cloud_hosts[0]
        elif spec.key == "amazon":
            # Amazon IoT runs on the company's own cloud regions; the us-east-1
            # outage therefore affects it even though the strategy is DI.
            cloud_host = "Amazon Web Services"
        return BackendServer(
            ip=address,
            provider=spec.key,
            location=location,
            asn=asn,
            prefix=prefix,
            endpoints=endpoints,
            domains=tuple(domains),
            dedicated_iot=dedicated,
            cloud_host=cloud_host,
        )

    def _domains_for_server(
        self, spec: ProviderSpec, location: Location, index: int, dedicated: bool
    ) -> List[str]:
        scheme = spec.naming
        region = region_label(
            scheme,
            location.region_code,
            location.airport_code,
            zone_index=stable_hash(f"{spec.key}:{location.region_code}", 97),
        )
        if scheme.subdomain_kind == SUBDOMAIN_FIXED:
            if not dedicated and len(scheme.fixed_fqdns) > 1:
                names = [scheme.fixed_fqdns[1]]
            else:
                names = [scheme.fixed_fqdns[0]]
        elif scheme.subdomain_kind == SUBDOMAIN_SERVICE:
            labels = scheme.service_labels[: 2]
            names = [
                build_fqdn(scheme, service_label=label, region=region) for label in labels
            ]
        else:
            customer = f"{spec.key}-tenant-{index // 6:03d}"
            names = [build_fqdn(scheme, customer_id=customer, region=region)]
        registry = self.iot_domains.setdefault(spec.key, [])
        for name in names:
            if name not in registry:
                registry.append(name)
        return names

    def _endpoints_for_server(
        self, spec: ProviderSpec, domains: Sequence[str], cert_exposed: bool
    ) -> Tuple[ServiceEndpoint, ...]:
        certificate = self._certificate_for(spec, domains)
        endpoints: List[ServiceEndpoint] = []
        seen: Set[Tuple[str, int]] = set()
        for offering in spec.protocols:
            key = (offering.transport, offering.port)
            if key in seen:
                continue
            seen.add(key)
            tls_config: Optional[TlsServerConfig] = None
            needs_tls = offering.protocol.upper() in _TLS_PROTOCOLS or (
                offering.protocol.upper() == "MQTT" and offering.port == 443
            )
            if needs_tls:
                # A server whose certificate is not exposed (SNI providers, and
                # front-end terminators) presents no default certificate.
                tls_config = TlsServerConfig(
                    default_certificate=certificate if cert_exposed else None,
                    sni_certificates={d.lower(): certificate for d in domains},
                    require_sni=not cert_exposed,
                    require_client_certificate=offering.port in spec.client_cert_ports,
                )
            endpoints.append(
                ServiceEndpoint(
                    transport=offering.transport,
                    port=offering.port,
                    protocol=offering.protocol,
                    tls=tls_config,
                )
            )
        return tuple(endpoints)

    def _certificate_for(self, spec: ProviderSpec, domains: Sequence[str]) -> Certificate:
        names = list(domains)
        scheme = spec.naming
        if scheme.subdomain_kind == SUBDOMAIN_CUSTOMER and domains:
            # Real deployments present wildcard certificates covering all tenants of
            # a region; keep the concrete name first so scanners can match it.
            first = domains[0]
            suffix = first.split(".", 1)[1] if "." in first else first
            names.append(f"*.{suffix}")
        period = self.config.study_period
        return make_certificate(
            names,
            issuer=f"{spec.organization} CA" if spec.uses_sni else "Example Trust CA",
            not_before=period.start - timedelta(days=180),
            not_after=period.end + timedelta(days=180),
        )

    # -- DNS ---------------------------------------------------------------------------------

    def _register_dns(
        self,
        spec: ProviderSpec,
        deployment: ProviderDeployment,
        dns_category: Mapping[str, str],
    ) -> None:
        multi_continent = len(deployment.continents()) > 1
        policy = AnswerPolicy.GEO if multi_continent else AnswerPolicy.ROUND_ROBIN
        period = self.config.study_period
        for server in deployment.servers:
            rtype = RTYPE_AAAA if server.is_ipv6 else RTYPE_A
            category = dns_category.get(server.ip, "covered")
            for domain in server.domains:
                if category == "stale":
                    # A "stale" binding was observed by passive DNS sensors in the
                    # past but the authoritative zone no longer returns it
                    # (decommissioned tenants, moved load balancers).  Such addresses
                    # are only discoverable via passive DNS, which gives DNSDB its
                    # own contribution in Figure 3.
                    self.passive_dns.add_observation(
                        rrname=domain,
                        rdata=server.ip,
                        first_seen=period.start - timedelta(days=200),
                        last_seen=period.end - timedelta(days=1),
                        count=20 + stable_hash(f"count:{server.ip}", 200),
                    )
                    continue
                self.authoritative.register(
                    AuthoritativeRecord(domain, rtype, server.ip, server.location),
                    policy=policy,
                    window=2,
                )
                if category == "covered":
                    self.passive_dns.add_observation(
                        rrname=domain,
                        rdata=server.ip,
                        first_seen=period.start - timedelta(days=30),
                        last_seen=period.end,
                        count=50 + stable_hash(f"count:{server.ip}", 500),
                    )
            if not server.dedicated_iot:
                self._register_shared_domains(server, period)

    def _register_shared_domains(self, server: BackendServer, period: StudyPeriod) -> None:
        """Attach many non-IoT domains to a shared IP (CDN / multi-service frontends)."""
        for index in range(self.config.shared_domains_per_ip):
            name = f"www{index}.shared-content-{stable_hash(server.ip, 10_000)}.example"
            self.passive_dns.add_observation(
                rrname=name,
                rdata=server.ip,
                first_seen=period.start - timedelta(days=60),
                last_seen=period.end,
                count=100,
            )

    def _register_hitlist(self, spec: ProviderSpec, deployment: ProviderDeployment) -> None:
        for server in deployment.ipv6_servers():
            covered = stable_hash(f"hitlist:{server.ip}", 1000) < int(
                spec.ipv6_hitlist_coverage * 1000
            )
            if covered:
                self.hitlist.add(server.address)

    def _register_published_ranges(self, spec: ProviderSpec, deployment: ProviderDeployment) -> None:
        if spec.publishes_ip_ranges:
            self.published_ranges[spec.key] = deployment.prefixes()

    # -- background noise ----------------------------------------------------------------------

    def _build_non_iot_hosts(self) -> List[BackendServer]:
        """Ordinary web servers included in scan snapshots but unrelated to IoT."""
        hosts: List[BackendServer] = []
        if self.config.n_non_iot_hosts <= 0:
            return hosts
        web_as = self.as_registry.create("Generic Hosting", "Generic Hosting", AsKind.OTHER)
        network = self.background_allocator.allocate_prefix(24)
        location = self.locations[0]
        prefix = self._register_block(network, web_as.asn, location)
        addresses = self.background_allocator.hosts_in(network, self.config.n_non_iot_hosts)
        period = self.config.study_period
        for index, address in enumerate(addresses):
            domain = f"www.shop-{index:03d}.example"
            certificate = make_certificate(
                [domain],
                not_before=period.start - timedelta(days=90),
                not_after=period.end + timedelta(days=90),
            )
            endpoint = ServiceEndpoint(
                transport="tcp",
                port=443,
                protocol="HTTPS",
                tls=TlsServerConfig(default_certificate=certificate),
            )
            host = BackendServer(
                ip=address,
                provider="web-hosting",
                location=location,
                asn=web_as.asn,
                prefix=prefix,
                endpoints=(endpoint,),
                domains=(domain,),
                dedicated_iot=False,
            )
            hosts.append(host)
            self.passive_dns.add_observation(
                rrname=domain,
                rdata=host.ip,
                first_seen=period.start - timedelta(days=90),
                last_seen=period.end,
            )
        return hosts

    def _populate_background_dns(self) -> None:
        """Unrelated passive DNS records exercising the regex selectivity."""
        stream = self.rng.stream("background-dns")
        period = self.config.study_period
        for index in range(self.config.n_background_dns_records):
            name = f"host{index}.background-{stream.randrange(100)}.example"
            ip = f"172.20.{stream.randrange(256)}.{stream.randrange(1, 255)}"
            self.passive_dns.add_observation(
                rrname=name,
                rdata=ip,
                first_seen=period.start - timedelta(days=stream.randrange(10, 300)),
                last_seen=period.end - timedelta(days=stream.randrange(0, 5)),
            )

    def _build_blocklists(self) -> BlocklistAggregate:
        stream = self.rng.stream("blocklists")
        lists = [
            Blocklist("open-proxy-list", CATEGORY_OPEN_PROXY),
            Blocklist("malware-tracker", CATEGORY_MALWARE),
            Blocklist("attack-feed", CATEGORY_ATTACKS),
            Blocklist("personal-blocklist", CATEGORY_PERSONAL),
            Blocklist("stale-list", CATEGORY_ATTACKS, well_maintained=False),
        ]
        getrandbits = stream.getrandbits
        for blocklist in lists:
            add = blocklist.entries.add
            for _ in range(400):
                # 172.b.c.d, drawn in the order b, c, d with the draws of
                # randrange(16, 32), randrange(256) and randrange(1, 255), and
                # added as the dotted-quad text Blocklist.add normalizes to.
                b = getrandbits(5)
                while b >= 16:
                    b = getrandbits(5)
                c = getrandbits(9)
                while c >= 256:
                    c = getrandbits(9)
                d = getrandbits(8)
                while d >= 254:
                    d = getrandbits(8)
                add(f"172.{16 + b}.{c}.{1 + d}")
        backend = [server.address for server in self._all_ipv4_backend_servers()]
        if backend:
            count = min(self.config.n_blocklisted_backend_ips, len(backend))
            chosen = stream.sample(backend, count)
            for index, address in enumerate(chosen):
                lists[index % 4].add(address)
        return BlocklistAggregate(lists)

    def _all_ipv4_backend_servers(self) -> List[BackendServer]:
        servers: List[BackendServer] = []
        for deployment in self.deployments.values():
            servers.extend(deployment.ipv4_servers())
        return servers

    def _build_bgp_events(self) -> BgpEventFeed:
        stream = self.rng.stream("bgp-events")
        feed = BgpEventFeed()
        period = self.config.study_period
        background_asns = [65000 + i for i in range(200)]
        counts = (
            (EventKind.BGP_LEAK, 10),
            (EventKind.POSSIBLE_HIJACK, 40),
            (EventKind.AS_OUTAGE, 166),
        )
        for kind, count in counts:
            for _ in range(count):
                day = period.start + timedelta(days=stream.randrange(period.n_days))
                prefix = None
                if kind != EventKind.AS_OUTAGE:
                    prefix = f"172.{stream.randrange(16, 32)}.{stream.randrange(256)}.0/24"
                feed.add(
                    BgpEvent(
                        kind=kind,
                        day=day,
                        asn=stream.choice(background_asns),
                        prefix=prefix,
                        description=f"background {kind.value}",
                    )
                )
        return feed

    def _vantage_points(self) -> List[VantagePoint]:
        by_region = {loc.region_code: loc for loc in self.locations}
        return [
            VantagePoint("eu-central", by_region["eu-central-1"]),
            VantagePoint("eu-west", by_region["eu-west-1"]),
            VantagePoint("us-east", by_region["us-east-1"]),
        ]

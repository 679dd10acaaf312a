"""A Censys-like Internet-wide IPv4 scanning service.

Censys continuously scans the IPv4 address space across many ports, performs
protocol-specific handshakes, collects TLS certificates and banners, annotates
hosts with geolocation metadata, and publishes daily snapshots (Section 3.3).  The
paper queries those snapshots for certificates whose names match the per-provider
regular expressions.

The service here scans the hosts the world exposes for a given day (ground-truth
backend servers plus unrelated hosts), *without SNI and without client
certificates*, exactly like an Internet-wide scanner connecting by address.  As a
result it reproduces the two blind spots the paper reports: SNI-requiring providers
(Google) and client-certificate-requiring endpoints (Amazon MQTT) yield no usable
certificates from scans.  Each open port's banner is its protocol's entry in the
table of :mod:`repro.scan.banners`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.netmodel.geo import GeoDatabase, Location
from repro.netmodel.topology import BackendServer
from repro.scan.banners import Banner, grab_banner
from repro.scan.certificates import Certificate
from repro.scan.tls import perform_handshake


@dataclass(frozen=True)
class CensysHostRecord:
    """One host in a daily snapshot."""

    ip: str
    snapshot_date: date
    open_ports: Tuple[Tuple[str, int], ...]
    certificates: Tuple[Certificate, ...]
    location: Optional[Location]
    banners: Tuple[Banner, ...] = ()

    def certificate_names(self) -> List[str]:
        """All DNS names across all certificates observed on the host."""
        names: List[str] = []
        for certificate in self.certificates:
            for name in certificate.all_dns_names():
                if name not in names:
                    names.append(name)
        return names


@dataclass
class CensysSnapshot:
    """A daily snapshot of scan results, keyed by host address."""

    snapshot_date: date
    records: Dict[str, CensysHostRecord] = field(default_factory=dict)

    def add(self, record: CensysHostRecord) -> None:
        """Add or replace the record for an address."""
        self.records[record.ip] = record

    def get(self, ip: str) -> Optional[CensysHostRecord]:
        """Return the record for an address, if the host was responsive."""
        return self.records.get(ip)

    def __len__(self) -> int:
        return len(self.records)

    def ips_with_open_ports(self, ports: Iterable[Tuple[str, int]]) -> Set[str]:
        """Hosts with at least one of the given (transport, port) pairs open."""
        wanted = {(transport.lower(), port) for transport, port in ports}
        return {
            record.ip
            for record in self.records.values()
            if any(endpoint in wanted for endpoint in record.open_ports)
        }


class _HostProbe(NamedTuple):
    """The day-independent part of a server's scan (see ``CensysService._probe``)."""

    open_ports: Tuple[Tuple[str, int], ...]
    #: Every distinct certificate observed without SNI, valid or not.
    certificates: Tuple[Certificate, ...]
    banners: Tuple[Banner, ...]
    location: Optional[Location]


class CensysService:
    """Builds daily snapshots by scanning the hosts visible on a given day.

    Parameters
    ----------
    geo_database:
        Source of the per-host geolocation metadata included in snapshots.
    host_source:
        Callable returning the backend servers (ground truth) active on a day.
        Daily variation in this set is what produces IP churn in snapshots.
    extra_hosts:
        Additional non-IoT hosts (e.g. ordinary web servers) included in every
        snapshot; they exercise the shared-vs-dedicated validation logic.
    geolocation_error_rate:
        Fraction of hosts whose reported location is perturbed to a wrong location,
        modelling the <7% disagreement between geolocation sources the paper reports.
    """

    #: Ports probed by the scanner, mirroring a broad Censys port set.
    SCANNED_PORTS: Tuple[Tuple[str, int], ...] = (
        ("tcp", 80),
        ("tcp", 443),
        ("tcp", 1883),
        ("tcp", 1884),
        ("tcp", 8443),
        ("tcp", 8883),
        ("tcp", 8943),
        ("tcp", 5671),
        ("tcp", 9123),
        ("tcp", 9124),
        ("tcp", 61616),
        ("tcp", 4840),
        ("udp", 5682),
        ("udp", 5683),
        ("udp", 5684),
        ("udp", 5686),
    )

    def __init__(
        self,
        geo_database: GeoDatabase,
        host_source: Callable[[date], Sequence[BackendServer]],
        extra_hosts: Sequence[BackendServer] = (),
        geolocation_error_rate: float = 0.0,
        location_pool: Sequence[Location] = (),
    ) -> None:
        self._geo_database = geo_database
        self._host_source = host_source
        self._extra_hosts = list(extra_hosts)
        self._geolocation_error_rate = geolocation_error_rate
        self._location_pool = list(location_pool)
        self._scanned = frozenset(self.SCANNED_PORTS)
        self._snapshots: Dict[date, CensysSnapshot] = {}
        # Per-server probe results by ``id(server)``; each entry holds its
        # server, so the id cannot be recycled while the entry lives.
        self._probes: Dict[int, Tuple[BackendServer, Optional[_HostProbe]]] = {}

    def snapshot(self, day: date) -> CensysSnapshot:
        """Return (building and caching if necessary) the snapshot for a day."""
        if day not in self._snapshots:
            self._snapshots[day] = self._build_snapshot(day)
        return self._snapshots[day]

    def _build_snapshot(self, day: date) -> CensysSnapshot:
        snapshot = CensysSnapshot(snapshot_date=day)
        hosts = [s for s in self._host_source(day) if not s.is_ipv6]
        hosts.extend(h for h in self._extra_hosts if not h.is_ipv6)
        for index, server in enumerate(sorted(hosts, key=lambda s: s.ip)):
            record = self._scan_host(server, day, index)
            if record is not None:
                snapshot.add(record)
        return snapshot

    def _probe(self, server: BackendServer) -> Optional[_HostProbe]:
        """Everything a scan of ``server`` sees that does not depend on the day.

        Computed on the first snapshot that scans the server and reused by the
        others: nothing mutates a server or the geolocation database after the
        world is built.  ``None`` when the server has no scanned port open.
        """
        entry = self._probes.get(id(server))
        if entry is not None:
            return entry[1]
        open_ports: List[Tuple[str, int]] = []
        certificates: List[Certificate] = []
        banners: List[Banner] = []
        for endpoint in server.endpoints:
            if endpoint.key not in self._scanned:
                continue
            open_ports.append(endpoint.key)
            banner = grab_banner(endpoint)
            if banner is not None:
                banners.append(banner)
            if endpoint.tls is not None:
                # Internet-wide scans connect by IP: no SNI, no client certificate.
                handshake = perform_handshake(endpoint.tls, server_name=None)
                certificate = handshake.observed_certificate
                if certificate is not None and certificate not in certificates:
                    certificates.append(certificate)
        probe = None
        if open_ports:
            probe = _HostProbe(
                open_ports=tuple(open_ports),
                certificates=tuple(certificates),
                banners=tuple(banners),
                location=self._geo_database.lookup_ip(server.address) or server.location,
            )
        self._probes[id(server)] = (server, probe)
        return probe

    def _scan_host(self, server: BackendServer, day: date, index: int) -> Optional[CensysHostRecord]:
        probe = self._probe(server)
        if probe is None:
            return None
        location = probe.location
        if self._location_pool and self._geolocation_error_rate > 0:
            # Deterministic perturbation: a fixed slice of hosts gets a wrong location.
            if (index % 1000) < int(self._geolocation_error_rate * 1000):
                location = self._location_pool[index % len(self._location_pool)]
        return CensysHostRecord(
            ip=server.ip,
            snapshot_date=day,
            open_ports=probe.open_ports,
            # Validity is the one per-day property of a certificate.
            certificates=tuple(c for c in probe.certificates if c.is_valid_on(day)),
            location=location,
            banners=probe.banners,
        )

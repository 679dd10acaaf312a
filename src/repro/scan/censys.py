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
certificates from scans.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import date
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.netmodel.geo import GeoDatabase, Location
from repro.netmodel.topology import BackendServer, ServiceEndpoint
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

    def certificate_identity(self) -> Tuple[Certificate, ...]:
        """The identity of the certificate material presented by the host.

        Daily snapshots overlap heavily: the same backend serves the same
        certificates day after day, and the incremental discovery cache
        (:class:`repro.core.discovery.HostClassificationCache`) keys each host
        observation on ``(ip, certificate identity)`` to reuse the prior day's
        classification verdicts.  The identity is the certificate tuple
        itself: comparing two days' tuples short-circuits on object identity
        for unchanged certificates (endpoints serve the same objects across
        days) and falls back to value equality, so a rotated certificate —
        even one replaced by an equal copy — always compares correctly and a
        changed one is re-classified.
        """
        return self.certificates


@dataclass
class CensysSnapshot:
    """A daily snapshot of scan results, keyed by host address."""

    snapshot_date: date
    records: Dict[str, CensysHostRecord] = field(default_factory=dict)
    _name_index: Optional[Dict[str, List[str]]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _name_index_fingerprint: Optional[Tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    def add(self, record: CensysHostRecord) -> None:
        """Add or replace the record for an address."""
        self.records[record.ip] = record
        self._name_index = None

    def get(self, ip: str) -> Optional[CensysHostRecord]:
        """Return the record for an address, if the host was responsive."""
        return self.records.get(ip)

    def hosts(self) -> List[CensysHostRecord]:
        """Return every host record in the snapshot."""
        return [self.records[ip] for ip in sorted(self.records)]

    def __len__(self) -> int:
        return len(self.records)

    def certificate_name_index(self) -> Dict[str, List[str]]:
        """Map every certificate DNS name to the hosts presenting it.

        Snapshots contain far fewer distinct certificate names than
        (host, certificate, name) triples -- most backend fleets share a few
        wildcard certificates -- so consumers that classify names (the
        discovery layer) should iterate this index and match each name once.
        The index is built lazily; :meth:`add` invalidates it, and a cheap
        identity fingerprint over ``records`` catches direct mutation of the
        public mapping (which remains supported).
        """
        fingerprint = tuple(self.records.items())
        if self._name_index is None or fingerprint != self._name_index_fingerprint:
            index: Dict[str, List[str]] = {}
            for record in self.hosts():
                for name in record.certificate_names():
                    index.setdefault(name, []).append(record.ip)
            self._name_index = index
            self._name_index_fingerprint = fingerprint
        return self._name_index

    def ips_with_open_ports(self, ports: Iterable[Tuple[str, int]]) -> Set[str]:
        """Hosts with at least one of the given (transport, port) pairs open."""
        wanted = {(transport.lower(), port) for transport, port in ports}
        return {
            record.ip
            for record in self.records.values()
            if any(endpoint in wanted for endpoint in record.open_ports)
        }

    def search_certificates(self, name_regex: str) -> List[Tuple[str, Certificate, str]]:
        """Return (ip, certificate, matched name) for names matching a regex.

        Mirrors Censys certificate search: the regex is applied to every DNS name
        (CN and SANs) of every certificate in the snapshot.  Names are matched both
        with and without a trailing dot, as the paper's DNSDB-style patterns end in
        ``\\.$``.
        """
        pattern = re.compile(name_regex)
        matches: List[Tuple[str, Certificate, str]] = []
        for record in self.hosts():
            for certificate in record.certificates:
                for name in certificate.all_dns_names():
                    candidate = name.rstrip(".")
                    if pattern.search(candidate) or pattern.search(candidate + "."):
                        matches.append((record.ip, certificate, candidate))
                        break
        return matches

    def search_name_string(self, name_substring: str) -> List[Tuple[str, Certificate, str]]:
        """String search over certificate names (Censys "string search" queries).

        Wildcard-style queries like ``*.iot.us-east-1.amazonaws.com`` match any name
        ending with the part after ``*``.
        """
        needle = name_substring.lstrip("*")
        results: List[Tuple[str, Certificate, str]] = []
        for record in self.hosts():
            for certificate in record.certificates:
                for name in certificate.all_dns_names():
                    if name.endswith(needle) or needle in name:
                        results.append((record.ip, certificate, name))
                        break
        return results


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
        self._snapshots: Dict[date, CensysSnapshot] = {}
        # Banners by upper-cased protocol name (None for unprobed protocols).
        self._banners: Dict[str, Optional[Banner]] = {}

    def snapshot(self, day: date) -> CensysSnapshot:
        """Return (building and caching if necessary) the snapshot for a day."""
        if day not in self._snapshots:
            self._snapshots[day] = self._build_snapshot(day)
        return self._snapshots[day]

    def snapshots(self, days: Iterable[date]) -> List[CensysSnapshot]:
        """Return snapshots for several days."""
        return [self.snapshot(day) for day in days]

    def _build_snapshot(self, day: date) -> CensysSnapshot:
        snapshot = CensysSnapshot(snapshot_date=day)
        hosts = [s for s in self._host_source(day) if not s.is_ipv6]
        hosts.extend(h for h in self._extra_hosts if not h.is_ipv6)
        for index, server in enumerate(sorted(hosts, key=lambda s: s.ip)):
            record = self._scan_host(server, day, index)
            if record is not None:
                snapshot.add(record)
        return snapshot

    def _banner(self, endpoint: ServiceEndpoint) -> Optional[Banner]:
        """The endpoint's banner, probed once per protocol.

        :func:`grab_banner` reads only the endpoint's protocol, and a
        :class:`Banner` is frozen, so every endpoint of a protocol shares one.
        """
        protocol = endpoint.protocol.upper()
        if protocol not in self._banners:
            self._banners[protocol] = grab_banner(endpoint)
        return self._banners[protocol]

    def _scan_host(self, server: BackendServer, day: date, index: int) -> Optional[CensysHostRecord]:
        open_ports: List[Tuple[str, int]] = []
        certificates: List[Certificate] = []
        banners: List[Banner] = []
        scanned = set(self.SCANNED_PORTS)
        for endpoint in server.endpoints:
            if endpoint.key not in scanned:
                continue
            open_ports.append(endpoint.key)
            banner = self._banner(endpoint)
            if banner is not None:
                banners.append(banner)
            if endpoint.tls is not None:
                # Internet-wide scans connect by IP: no SNI, no client certificate.
                handshake = perform_handshake(endpoint.tls, server_name=None)
                certificate = handshake.observed_certificate
                if certificate is not None and certificate.is_valid_on(day):
                    if certificate not in certificates:
                        certificates.append(certificate)
        if not open_ports:
            return None
        location = self._geo_database.lookup_ip(server.address) or server.location
        if self._location_pool and self._geolocation_error_rate > 0:
            # Deterministic perturbation: a fixed slice of hosts gets a wrong location.
            if (index % 1000) < int(self._geolocation_error_rate * 1000):
                location = self._location_pool[index % len(self._location_pool)]
        return CensysHostRecord(
            ip=server.ip,
            snapshot_date=day,
            open_ports=tuple(open_ports),
            certificates=tuple(certificates),
            location=location,
            banners=tuple(banners),
        )

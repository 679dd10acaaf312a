"""Provider deployment topology: backend servers and their service endpoints.

The world builder (:mod:`repro.simulation.world`) instantiates one
:class:`ProviderDeployment` per IoT backend provider.  A deployment consists of
:class:`BackendServer` objects — the Internet-facing gateways of Figure 1 — each of
which carries its address, location, origin AS, announced prefix, DNS names, and
the service endpoints (protocol/port plus TLS configuration) it exposes.

These objects are *ground truth*: the discovery pipeline never reads them directly;
it only sees their reflections in DNS, certificates, scan snapshots, and flows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.netmodel.addressing import IPAddress, parse_ip
from repro.netmodel.geo import Location

if TYPE_CHECKING:  # pragma: no cover - import only needed for type checkers
    from repro.scan.tls import TlsServerConfig


@dataclass(frozen=True)
class ServiceEndpoint:
    """A single (transport, port) service exposed by a backend server.

    Attributes
    ----------
    transport:
        ``tcp`` or ``udp``.
    port:
        Port number the service listens on.
    protocol:
        Application protocol spoken on the port (``MQTT``, ``MQTTS``, ``HTTPS``,
        ``CoAP``, ``AMQPS``, ...), which may legitimately differ from the IANA
        assignment of the port (e.g. MQTT on 443).
    tls:
        TLS configuration when the service is TLS-wrapped, else None.
    """

    transport: str
    port: int
    protocol: str
    tls: Optional["TlsServerConfig"] = None

    @property
    def key(self) -> Tuple[str, int]:
        """The (transport, port) pair identifying the endpoint on its server."""
        return (self.transport, self.port)


@dataclass
class BackendServer:
    """An Internet-facing IoT backend gateway server.

    ``ip`` may be given as text or as a parsed address; either way it is
    stored as normalized text, and ``address`` keeps the parsed form.
    """

    ip: str
    provider: str
    location: Location
    asn: int
    prefix: str
    endpoints: Tuple[ServiceEndpoint, ...] = ()
    domains: Tuple[str, ...] = ()
    dedicated_iot: bool = True
    cloud_host: Optional[str] = None
    #: The parsed form of ``ip``, so lookups and version checks never re-parse it.
    address: IPAddress = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Normalise the address textual form once, so set membership is stable;
        # a parsed address is taken as is.
        self.address = parse_ip(self.ip)
        self.ip = str(self.address)

    @property
    def ip_version(self) -> int:
        """4 or 6."""
        return self.address.version

    @property
    def is_ipv6(self) -> bool:
        """True for IPv6 servers."""
        return self.address.version == 6

    def endpoint(self, transport: str, port: int) -> Optional[ServiceEndpoint]:
        """Return the endpoint listening on (transport, port), if any."""
        for ep in self.endpoints:
            if ep.transport == transport and ep.port == port:
                return ep
        return None


@dataclass
class ProviderDeployment:
    """All backend servers operated by (or on behalf of) one provider."""

    provider: str
    servers: List[BackendServer] = field(default_factory=list)

    # -- address views ------------------------------------------------------------

    def ipv4_servers(self) -> List[BackendServer]:
        """Return the IPv4 servers."""
        return [server for server in self.servers if not server.is_ipv6]

    def ipv6_servers(self) -> List[BackendServer]:
        """Return the IPv6 servers."""
        return [server for server in self.servers if server.is_ipv6]

    # -- aggregate characteristics (ground-truth versions of Table 1 columns) ------

    def countries(self) -> List[str]:
        """Distinct country codes of the deployment."""
        return sorted({server.location.country for server in self.servers})

    def continents(self) -> List[str]:
        """Distinct continents of the deployment."""
        return sorted({server.location.continent for server in self.servers})

    def asns(self) -> List[int]:
        """Distinct origin AS numbers of the deployment."""
        return sorted({server.asn for server in self.servers})

    def prefixes(self) -> List[str]:
        """Distinct announced prefixes of the deployment."""
        return sorted({server.prefix for server in self.servers})

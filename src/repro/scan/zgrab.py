"""A ZGrab2-like scanner used for IPv6 targets.

During the study period Censys scanned only IPv4, so the authors ran their own
IPv6 measurements: ZGrab2 extended with MQTT/AMQP support, probing the addresses on
IPv6 hitlists that had shown activity on ports 443, 8883, 1883, and 5671, from a
single server in Europe (Section 3.3).  This module reproduces that scanner: it
probes only hitlist addresses and performs TLS handshakes without SNI or client
certificates.  As in the paper, only the certificate attributes a host; the
application-layer handshake on top would only show that something answered, so
it is not modelled.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.netmodel.topology import BackendServer, ServiceEndpoint
from repro.scan.certificates import Certificate
from repro.scan.hitlist import IPv6Hitlist
from repro.scan.tls import perform_handshake


@dataclass(frozen=True)
class ZGrabResult:
    """The result of probing one (address, transport, port) combination."""

    ip: str
    transport: str
    port: int
    protocol: str
    certificate: Optional[Certificate] = None


class ZGrabScanner:
    """Scans IPv6 hitlist addresses for IoT protocols and collects certificates.

    Parameters
    ----------
    probed_ports:
        The (transport, port) pairs probed per address, defaulting to the set
        the paper lists: HTTPS 443, MQTTS 8883, MQTT 1883, AMQPS 5671.
    """

    DEFAULT_PORTS: Tuple[Tuple[str, int], ...] = (
        ("tcp", 443),
        ("tcp", 8883),
        ("tcp", 1883),
        ("tcp", 5671),
    )

    def __init__(self, probed_ports: Sequence[Tuple[str, int]] = DEFAULT_PORTS) -> None:
        self.probed_ports = tuple(probed_ports)

    def scan(
        self,
        scan_date: date,
        hitlist: IPv6Hitlist,
        servers_by_ip: Mapping[str, BackendServer],
    ) -> List[ZGrabResult]:
        """Probe every hitlist address on every configured port.

        Addresses without a listening server simply produce no results (the probe
        times out); addresses with servers produce one result per responsive port.
        """
        results: List[ZGrabResult] = []
        for address in hitlist:
            server = servers_by_ip.get(address)
            if server is None:
                continue
            for transport, port in self.probed_ports:
                endpoint = server.endpoint(transport, port)
                if endpoint is None:
                    continue
                results.append(self._probe_endpoint(address, endpoint, scan_date))
        return results

    def _probe_endpoint(
        self, address: str, endpoint: ServiceEndpoint, scan_date: date
    ) -> ZGrabResult:
        certificate: Optional[Certificate] = None
        if endpoint.tls is not None:
            handshake = perform_handshake(endpoint.tls, server_name=None)
            if handshake.success and handshake.certificate is not None:
                if handshake.certificate.is_valid_on(scan_date):
                    certificate = handshake.certificate
        return ZGrabResult(
            ip=address,
            transport=endpoint.transport,
            port=endpoint.port,
            protocol=endpoint.protocol,
            certificate=certificate,
        )

"""Application-layer banners.

Censys performs protocol-specific handshakes to collect banners in addition to TLS
certificates (Section 3.3).  The handshake only shows that something answered; the
provider is attributed from the certificate.  Every backend of a protocol family
answers the scanner's unauthenticated probe the same way, so the banner stored in
scan snapshots is one entry per protocol in a fixed table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.netmodel.topology import ServiceEndpoint


@dataclass(frozen=True)
class Banner:
    """A condensed application-layer probe result for one endpoint."""

    protocol: str
    summary: str
    success: bool


#: The banner of each upper-cased protocol: MQTT brokers refuse an anonymous
#: CONNECT, CoAP servers an unauthenticated GET, AMQP servers answer the
#: protocol header with the SASL variant, and HTTP gateways ask for credentials.
_BANNERS: Dict[str, Banner] = {
    protocol: Banner(protocol, summary, True)
    for protocols, summary in (
        (("MQTT", "MQTTS"), "mqtt connack=NOT_AUTHORIZED"),
        (("COAP", "COAPS"), "coap response=4.01"),
        (("AMQP", "AMQPS"), "amqp header=SASL"),
        (("HTTP", "HTTPS"), "http status=401"),
    )
    for protocol in protocols
}


def grab_banner(endpoint: ServiceEndpoint) -> Optional[Banner]:
    """The banner of the endpoint's application protocol.

    Returns None for protocols the scanner has no module for (mirroring real
    scanners, which only cover a fixed protocol set).
    """
    return _BANNERS.get(endpoint.protocol.upper())

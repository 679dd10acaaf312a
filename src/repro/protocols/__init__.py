"""The ports IoT backends expose at their Internet-facing gateways.

:mod:`repro.protocols.ports` registers the ports of the study (MQTT, MQTT over
TLS, CoAP, AMQP, HTTP(S) and the vendor-specific ones): the port-scan baseline
probes the standard IoT ones, and the traffic analyses label the figures' ports
with them.  The application-layer answers a scanner records are the banner
table of :mod:`repro.scan.banners`.
"""

from repro.protocols.ports import (
    IANA_PORT_SERVICES,
    PortService,
    STANDARD_IOT_PORTS,
    describe_port,
)

__all__ = [
    "IANA_PORT_SERVICES",
    "PortService",
    "STANDARD_IOT_PORTS",
    "describe_port",
]

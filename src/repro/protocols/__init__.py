"""Application-layer protocol substrate.

These modules implement lightweight but faithful models of the protocols IoT
backends expose at their Internet-facing gateways: MQTT (including MQTT over TLS),
CoAP, AMQP, and HTTP(S).  The scanners in :mod:`repro.scan` speak these protocols
when probing addresses, and the flow workload generator tags flows with the port
of the protocol the device uses.  :mod:`repro.protocols.ports` registers the
ports of the study and labels them for the figures.
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

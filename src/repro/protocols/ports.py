"""IANA-style port registry and the port labels of the figures.

The paper highlights that IoT backend providers use a mix of standard IoT ports
(MQTT 1883/8883, CoAP 5683/5684, AMQP 5671), Web ports (80/443), and non-standard
ports (e.g. MQTT on 1884 or 443, CoAP on 5682/5686, ActiveMQ on 61616).  The port
mix per provider is the subject of Figure 11, and the inadequacy of probing only
standard IoT ports is one of the paper's take-aways.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

TCP = "tcp"
UDP = "udp"


@dataclass(frozen=True)
class PortService:
    """A (transport, port) pair together with its registered service name."""

    transport: str
    port: int
    service: str
    description: str = ""

    @property
    def label(self) -> str:
        """Label used in figures, e.g. ``TCP/8883 (MQTTS)``."""
        return f"{self.transport.upper()}/{self.port} ({self.service})"


# Port numbers referenced by the paper.
PORT_HTTP = 80
PORT_HTTPS = 443
PORT_HTTPS_ALT = 8443
PORT_MQTT = 1883
PORT_MQTT_ALT = 1884
PORT_MQTTS = 8883
PORT_AMQPS = 5671
PORT_COAP = 5683
PORT_COAPS = 5684
PORT_COAP_ALT = 5682
PORT_COAP_ALT2 = 5686
PORT_HUAWEI_HTTPS = 8943
PORT_ACTIVEMQ = 61616
PORT_CISCO_KINETIC_A = 9123
PORT_CISCO_KINETIC_B = 9124
PORT_OPC_UA = 4840

#: Registered (IANA or conventional) services for the ports appearing in the study.
IANA_PORT_SERVICES: Dict[Tuple[str, int], PortService] = {
    (TCP, PORT_HTTP): PortService(TCP, PORT_HTTP, "HTTP", "Hypertext Transfer Protocol"),
    (TCP, PORT_HTTPS): PortService(TCP, PORT_HTTPS, "HTTPS", "HTTP over TLS"),
    (TCP, PORT_HTTPS_ALT): PortService(TCP, PORT_HTTPS_ALT, "HTTPS-alt", "Alternative HTTPS"),
    (TCP, PORT_MQTT): PortService(TCP, PORT_MQTT, "MQTT", "Message Queuing Telemetry Transport"),
    (TCP, PORT_MQTTS): PortService(TCP, PORT_MQTTS, "MQTTS", "MQTT over TLS"),
    (TCP, PORT_AMQPS): PortService(TCP, PORT_AMQPS, "AMQPS", "AMQP over TLS"),
    (UDP, PORT_COAP): PortService(UDP, PORT_COAP, "CoAP", "Constrained Application Protocol"),
    (UDP, PORT_COAPS): PortService(UDP, PORT_COAPS, "CoAPS", "CoAP over DTLS"),
    (TCP, PORT_ACTIVEMQ): PortService(TCP, PORT_ACTIVEMQ, "ActiveMQ", "Apache ActiveMQ messaging"),
    (TCP, PORT_OPC_UA): PortService(TCP, PORT_OPC_UA, "OPC-UA", "OPC Unified Architecture"),
}

#: Ports a naive scanner would treat as "IoT" (standard assignments only).
STANDARD_IOT_PORTS: Tuple[Tuple[str, int], ...] = (
    (TCP, PORT_MQTT),
    (TCP, PORT_MQTTS),
    (TCP, PORT_AMQPS),
    (UDP, PORT_COAP),
    (UDP, PORT_COAPS),
)


def describe_port(transport: str, port: int) -> PortService:
    """Return the :class:`PortService` for a pair, synthesising one if unknown."""
    key = (transport.lower(), port)
    if key in IANA_PORT_SERVICES:
        return IANA_PORT_SERVICES[key]
    return PortService(transport.lower(), port, f"port-{port}", "unregistered")


def port_label(transport: str, port: int) -> str:
    """Return the figure label for a pair, e.g. ``TCP/8883 (MQTTS)``."""
    service = describe_port(transport, port)
    known = (transport.lower(), port) in IANA_PORT_SERVICES
    if known:
        return service.label
    return f"{transport.upper()}/{port}"

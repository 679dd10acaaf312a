"""Tests for the port registry and the figures' port labels."""

from repro.protocols.ports import (
    IANA_PORT_SERVICES,
    STANDARD_IOT_PORTS,
    describe_port,
    port_label,
)


def test_describe_known_and_unknown_ports():
    assert describe_port("tcp", 8883).service == "MQTTS"
    unknown = describe_port("tcp", 12345)
    assert unknown.service == "port-12345"


def test_port_labels():
    assert port_label("tcp", 8883) == "TCP/8883 (MQTTS)"
    assert port_label("udp", 5684) == "UDP/5684 (CoAPS)"
    assert port_label("udp", 30023) == "UDP/30023"


def test_standard_ports_are_registered():
    for transport, port in STANDARD_IOT_PORTS:
        assert (transport, port) in IANA_PORT_SERVICES

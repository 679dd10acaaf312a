"""Minimal MQTT 3.1.1 model: CONNECT/CONNACK encoding and broker behaviour.

The scanners (:mod:`repro.scan.zgrab`) open MQTT connections to candidate backend
servers exactly like ZGrab2 with the MQTT module the authors added: perform the TLS
handshake where applicable and then send a CONNECT packet.  Providers that require
client certificates (e.g. Amazon's IoT MQTT endpoints) fail at the TLS layer;
providers that require credentials reject the CONNECT with a non-zero CONNACK
return code but still reveal their TLS certificate, which is all the methodology
needs.

Only the packet types required by the study are modelled (CONNECT, CONNACK,
PUBLISH, SUBSCRIBE headers), but the encodings follow the MQTT 3.1.1 wire format so
round-trip property tests are meaningful.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

PROTOCOL_NAME = "MQTT"
PROTOCOL_LEVEL_311 = 4


class PacketType(enum.IntEnum):
    """MQTT control packet types (high nibble of the fixed header)."""

    CONNECT = 1
    CONNACK = 2
    PUBLISH = 3
    SUBSCRIBE = 8
    SUBACK = 9
    PINGREQ = 12
    PINGRESP = 13
    DISCONNECT = 14


class ConnectReturnCode(enum.IntEnum):
    """CONNACK return codes defined by MQTT 3.1.1."""

    ACCEPTED = 0
    UNACCEPTABLE_PROTOCOL_VERSION = 1
    IDENTIFIER_REJECTED = 2
    SERVER_UNAVAILABLE = 3
    BAD_USERNAME_OR_PASSWORD = 4
    NOT_AUTHORIZED = 5


def encode_remaining_length(length: int) -> bytes:
    """Encode the MQTT variable-length "remaining length" field."""
    if length < 0 or length > 268_435_455:
        raise ValueError(f"remaining length {length} out of range")
    encoded = bytearray()
    while True:
        digit = length % 128
        length //= 128
        if length > 0:
            digit |= 0x80
        encoded.append(digit)
        if length == 0:
            return bytes(encoded)


def decode_remaining_length(data: bytes, offset: int = 0) -> Tuple[int, int]:
    """Decode a remaining-length field; return (value, bytes consumed)."""
    multiplier = 1
    value = 0
    consumed = 0
    while True:
        if offset + consumed >= len(data):
            raise ValueError("truncated remaining length")
        digit = data[offset + consumed]
        consumed += 1
        value += (digit & 0x7F) * multiplier
        if not digit & 0x80:
            return value, consumed
        multiplier *= 128
        if multiplier > 128**3:
            raise ValueError("malformed remaining length")


def _encode_utf8(value: str) -> bytes:
    raw = value.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ValueError("string too long for MQTT UTF-8 field")
    return len(raw).to_bytes(2, "big") + raw


def _decode_utf8(data: bytes, offset: int) -> Tuple[str, int]:
    if offset + 2 > len(data):
        raise ValueError("truncated UTF-8 length prefix")
    length = int.from_bytes(data[offset : offset + 2], "big")
    end = offset + 2 + length
    if end > len(data):
        raise ValueError("truncated UTF-8 string")
    return data[offset + 2 : end].decode("utf-8"), end


@dataclass(frozen=True)
class ConnectPacket:
    """An MQTT CONNECT packet (the subset of fields the scanners use)."""

    client_id: str
    clean_session: bool = True
    keep_alive: int = 60
    username: Optional[str] = None
    password: Optional[str] = None
    protocol_level: int = PROTOCOL_LEVEL_311

    def encode(self) -> bytes:
        """Encode the packet into MQTT 3.1.1 wire format."""
        flags = 0x02 if self.clean_session else 0x00
        payload = _encode_utf8(self.client_id)
        if self.username is not None:
            flags |= 0x80
            payload += _encode_utf8(self.username)
        if self.password is not None:
            if self.username is None:
                raise ValueError("MQTT 3.1.1 forbids a password without a username")
            flags |= 0x40
            payload += _encode_utf8(self.password)
        variable_header = (
            _encode_utf8(PROTOCOL_NAME)
            + bytes([self.protocol_level, flags])
            + self.keep_alive.to_bytes(2, "big")
        )
        body = variable_header + payload
        fixed_header = bytes([PacketType.CONNECT << 4]) + encode_remaining_length(len(body))
        return fixed_header + body

    @classmethod
    def decode(cls, data: bytes) -> "ConnectPacket":
        """Decode a CONNECT packet from wire format."""
        if not data or (data[0] >> 4) != PacketType.CONNECT:
            raise ValueError("not a CONNECT packet")
        remaining, consumed = decode_remaining_length(data, 1)
        body = data[1 + consumed : 1 + consumed + remaining]
        if len(body) != remaining:
            raise ValueError("truncated CONNECT packet")
        protocol_name, offset = _decode_utf8(body, 0)
        if protocol_name != PROTOCOL_NAME:
            raise ValueError(f"unexpected protocol name {protocol_name!r}")
        protocol_level = body[offset]
        flags = body[offset + 1]
        keep_alive = int.from_bytes(body[offset + 2 : offset + 4], "big")
        client_id, offset = _decode_utf8(body, offset + 4)
        username = password = None
        if flags & 0x80:
            username, offset = _decode_utf8(body, offset)
        if flags & 0x40:
            password, offset = _decode_utf8(body, offset)
        return cls(
            client_id=client_id,
            clean_session=bool(flags & 0x02),
            keep_alive=keep_alive,
            username=username,
            password=password,
            protocol_level=protocol_level,
        )


@dataclass(frozen=True)
class ConnackPacket:
    """An MQTT CONNACK packet."""

    return_code: ConnectReturnCode
    session_present: bool = False

    def encode(self) -> bytes:
        """Encode the packet into MQTT 3.1.1 wire format."""
        body = bytes([0x01 if self.session_present else 0x00, int(self.return_code)])
        return bytes([PacketType.CONNACK << 4]) + encode_remaining_length(len(body)) + body

    @classmethod
    def decode(cls, data: bytes) -> "ConnackPacket":
        """Decode a CONNACK packet from wire format."""
        if not data or (data[0] >> 4) != PacketType.CONNACK:
            raise ValueError("not a CONNACK packet")
        remaining, consumed = decode_remaining_length(data, 1)
        body = data[1 + consumed : 1 + consumed + remaining]
        if len(body) < 2:
            raise ValueError("truncated CONNACK packet")
        return cls(
            return_code=ConnectReturnCode(body[1]),
            session_present=bool(body[0] & 0x01),
        )

    @property
    def accepted(self) -> bool:
        """True when the broker accepted the connection."""
        return self.return_code == ConnectReturnCode.ACCEPTED


@dataclass
class MqttBrokerBehaviour:
    """Server-side MQTT behaviour of a backend gateway.

    Parameters
    ----------
    requires_authentication:
        When True, CONNECT packets without credentials receive
        ``NOT_AUTHORIZED``; with credentials they receive
        ``BAD_USERNAME_OR_PASSWORD`` (the scanner never has valid credentials).
    banner:
        Free-text string identifying the broker software, exposed to banner grabs.
    """

    requires_authentication: bool = True
    banner: str = "generic-mqtt-broker"
    accepted_protocol_levels: Tuple[int, ...] = (PROTOCOL_LEVEL_311,)

    def handle_connect(self, packet: ConnectPacket) -> ConnackPacket:
        """Produce the CONNACK a broker with this behaviour would send."""
        if packet.protocol_level not in self.accepted_protocol_levels:
            return ConnackPacket(ConnectReturnCode.UNACCEPTABLE_PROTOCOL_VERSION)
        if not packet.client_id:
            return ConnackPacket(ConnectReturnCode.IDENTIFIER_REJECTED)
        if self.requires_authentication:
            if packet.username is None:
                return ConnackPacket(ConnectReturnCode.NOT_AUTHORIZED)
            return ConnackPacket(ConnectReturnCode.BAD_USERNAME_OR_PASSWORD)
        return ConnackPacket(ConnectReturnCode.ACCEPTED)


@dataclass(frozen=True)
class MqttProbeResult:
    """Outcome of an application-layer MQTT probe (after any TLS handshake)."""

    connected: bool
    return_code: Optional[ConnectReturnCode] = None
    banner: Optional[str] = None

    @property
    def spoke_mqtt(self) -> bool:
        """True when the endpoint answered with a valid CONNACK at all."""
        return self.return_code is not None


def probe_broker(behaviour: MqttBrokerBehaviour, client_id: str = "zgrab-probe") -> MqttProbeResult:
    """Run the scanner-side MQTT handshake against a broker behaviour.

    The probe encodes a real CONNECT packet, lets the behaviour decode and answer
    it, and decodes the CONNACK, mirroring what ZGrab2's MQTT module does on the
    wire.
    """
    connect = ConnectPacket(client_id=client_id)
    wire_connect = connect.encode()
    decoded = ConnectPacket.decode(wire_connect)
    connack = behaviour.handle_connect(decoded)
    wire_connack = connack.encode()
    decoded_connack = ConnackPacket.decode(wire_connack)
    return MqttProbeResult(
        connected=decoded_connack.accepted,
        return_code=decoded_connack.return_code,
        banner=behaviour.banner,
    )

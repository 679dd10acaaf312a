"""Minimal CoAP (RFC 7252) message model.

CoAP is one of the IoT protocols offered by several backends in the study (on the
standard ports 5683/5684 and on non-standard ports 5682/5686).  The scanners send a
confirmable GET for ``/.well-known/core`` and record whether a syntactically valid
CoAP response comes back.  The header encoding follows RFC 7252 so that encode /
decode round-trips can be property-tested.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

COAP_VERSION = 1


class MessageType(enum.IntEnum):
    """CoAP message types."""

    CONFIRMABLE = 0
    NON_CONFIRMABLE = 1
    ACKNOWLEDGEMENT = 2
    RESET = 3


class Code(enum.IntEnum):
    """A subset of CoAP method and response codes (class.detail encoded as c*32+d)."""

    EMPTY = 0
    GET = 1
    POST = 2
    CONTENT = (2 << 5) | 5       # 2.05
    NOT_FOUND = (4 << 5) | 4     # 4.04
    UNAUTHORIZED = (4 << 5) | 1  # 4.01

    @property
    def code_class(self) -> int:
        """The class part of the code (e.g. 2 for 2.05)."""
        return int(self) >> 5

    @property
    def dotted(self) -> str:
        """Dotted representation, e.g. ``2.05``."""
        return f"{self.code_class}.{int(self) & 0x1F:02d}"


@dataclass(frozen=True)
class CoapMessage:
    """A CoAP message header plus an opaque payload."""

    message_type: MessageType
    code: Code
    message_id: int
    token: bytes = b""
    payload: bytes = b""

    def encode(self) -> bytes:
        """Encode into the RFC 7252 fixed header + token + payload marker layout."""
        if not 0 <= self.message_id <= 0xFFFF:
            raise ValueError("message id out of range")
        if len(self.token) > 8:
            raise ValueError("token longer than 8 bytes")
        first = (COAP_VERSION << 6) | (int(self.message_type) << 4) | len(self.token)
        header = bytes([first, int(self.code)]) + self.message_id.to_bytes(2, "big")
        body = self.token
        if self.payload:
            body += b"\xff" + self.payload
        return header + body

    @classmethod
    def decode(cls, data: bytes) -> "CoapMessage":
        """Decode a message from wire format."""
        if len(data) < 4:
            raise ValueError("truncated CoAP header")
        version = data[0] >> 6
        if version != COAP_VERSION:
            raise ValueError(f"unsupported CoAP version {version}")
        message_type = MessageType((data[0] >> 4) & 0x03)
        token_length = data[0] & 0x0F
        if token_length > 8:
            raise ValueError("invalid token length")
        code = Code(data[1])
        message_id = int.from_bytes(data[2:4], "big")
        token = data[4 : 4 + token_length]
        rest = data[4 + token_length :]
        payload = b""
        if rest:
            if rest[0] != 0xFF:
                raise ValueError("expected payload marker")
            payload = rest[1:]
        return cls(message_type, code, message_id, token, payload)


@dataclass
class CoapServerBehaviour:
    """Server-side CoAP behaviour of a backend gateway.

    ``requires_authentication`` models gateways that answer 4.01 Unauthorized to
    unauthenticated discovery requests; they still prove that a CoAP stack is
    listening, which is what the scanner records.
    """

    requires_authentication: bool = True
    resources: Tuple[str, ...] = ("/.well-known/core",)

    def handle(self, request: CoapMessage) -> CoapMessage:
        """Produce the response a server with this behaviour would send."""
        if request.code != Code.GET:
            return CoapMessage(MessageType.RESET, Code.EMPTY, request.message_id)
        if self.requires_authentication:
            return CoapMessage(
                MessageType.ACKNOWLEDGEMENT, Code.UNAUTHORIZED, request.message_id, request.token
            )
        body = ",".join(f"<{r}>" for r in self.resources).encode("ascii")
        return CoapMessage(
            MessageType.ACKNOWLEDGEMENT, Code.CONTENT, request.message_id, request.token, body
        )


@dataclass(frozen=True)
class CoapProbeResult:
    """Outcome of a CoAP probe."""

    responded: bool
    response_code: Optional[Code] = None

    @property
    def spoke_coap(self) -> bool:
        """True when a syntactically valid CoAP response was received."""
        return self.responded


def probe_server(behaviour: CoapServerBehaviour, message_id: int = 0x1234) -> CoapProbeResult:
    """Send a GET /.well-known/core style probe through the wire encoding."""
    request = CoapMessage(MessageType.CONFIRMABLE, Code.GET, message_id, token=b"\x01")
    decoded_request = CoapMessage.decode(request.encode())
    response = behaviour.handle(decoded_request)
    decoded_response = CoapMessage.decode(response.encode())
    return CoapProbeResult(responded=True, response_code=decoded_response.code)

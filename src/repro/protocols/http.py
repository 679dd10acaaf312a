"""Minimal HTTP/1.1 request/response model used by the scanning substrate.

Backend gateways commonly expose HTTPS endpoints (device provisioning, REST data
ingestion).  The scanner issues a ``GET /`` and records the status line and the
``Server`` header; when the gateway fronts a non-Web IoT service the typical answer
is a 4xx, which is still enough to confirm an HTTP stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

CRLF = "\r\n"


@dataclass(frozen=True)
class HttpRequest:
    """An HTTP/1.1 request (request line + headers, no body)."""

    method: str = "GET"
    path: str = "/"
    host: str = ""
    headers: Tuple[Tuple[str, str], ...] = ()

    def encode(self) -> str:
        """Serialize the request into HTTP/1.1 text form."""
        lines = [f"{self.method} {self.path} HTTP/1.1"]
        if self.host:
            lines.append(f"Host: {self.host}")
        for name, value in self.headers:
            lines.append(f"{name}: {value}")
        return CRLF.join(lines) + CRLF + CRLF

    @classmethod
    def decode(cls, text: str) -> "HttpRequest":
        """Parse an HTTP/1.1 request from text form."""
        head = text.split(CRLF + CRLF, 1)[0]
        lines = head.split(CRLF)
        try:
            method, path, version = lines[0].split(" ", 2)
        except ValueError as exc:
            raise ValueError("malformed request line") from exc
        if not version.startswith("HTTP/"):
            raise ValueError("malformed request line")
        host = ""
        headers = []
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            value = value.strip()
            if name.lower() == "host":
                host = value
            else:
                headers.append((name, value))
        return cls(method=method, path=path, host=host, headers=tuple(headers))


@dataclass(frozen=True)
class HttpResponse:
    """An HTTP/1.1 response (status line + headers + optional short body)."""

    status_code: int
    reason: str = ""
    headers: Tuple[Tuple[str, str], ...] = ()
    body: str = ""

    def encode(self) -> str:
        """Serialize the response into HTTP/1.1 text form."""
        lines = [f"HTTP/1.1 {self.status_code} {self.reason}".rstrip()]
        for name, value in self.headers:
            lines.append(f"{name}: {value}")
        return CRLF.join(lines) + CRLF + CRLF + self.body

    @classmethod
    def decode(cls, text: str) -> "HttpResponse":
        """Parse an HTTP/1.1 response from text form."""
        head, _, body = text.partition(CRLF + CRLF)
        lines = head.split(CRLF)
        parts = lines[0].split(" ", 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/"):
            raise ValueError("malformed status line")
        status_code = int(parts[1])
        reason = parts[2] if len(parts) > 2 else ""
        headers = []
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers.append((name, value.strip()))
        return cls(status_code=status_code, reason=reason, headers=tuple(headers), body=body)

    def header(self, name: str) -> Optional[str]:
        """Return the first header with the given (case-insensitive) name."""
        lowered = name.lower()
        for header_name, value in self.headers:
            if header_name.lower() == lowered:
                return value
        return None


@dataclass
class HttpServerBehaviour:
    """Server-side HTTP behaviour of a backend gateway."""

    server_header: str = "iot-gateway"
    status_for_unknown_host: int = 404
    status_for_known_host: int = 401
    known_hosts: Tuple[str, ...] = ()

    def handle(self, request: HttpRequest) -> HttpResponse:
        """Produce the response a gateway with this behaviour would send."""
        known = not self.known_hosts or request.host in self.known_hosts
        status = self.status_for_known_host if known else self.status_for_unknown_host
        reason = {200: "OK", 401: "Unauthorized", 404: "Not Found", 403: "Forbidden"}.get(
            status, "Unknown"
        )
        return HttpResponse(
            status_code=status,
            reason=reason,
            headers=(("Server", self.server_header), ("Connection", "close")),
        )


@dataclass(frozen=True)
class HttpProbeResult:
    """Outcome of an HTTP probe."""

    status_code: int
    server_header: Optional[str]

    @property
    def spoke_http(self) -> bool:
        """True when a syntactically valid HTTP response came back."""
        return 100 <= self.status_code <= 599


def probe_server(behaviour: HttpServerBehaviour, host: str = "") -> HttpProbeResult:
    """Issue a ``GET /`` through the text encoding and parse the response."""
    request = HttpRequest(host=host)
    decoded_request = HttpRequest.decode(request.encode())
    response = behaviour.handle(decoded_request)
    decoded_response = HttpResponse.decode(response.encode())
    return HttpProbeResult(
        status_code=decoded_response.status_code,
        server_header=decoded_response.header("Server"),
    )

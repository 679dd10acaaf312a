"""Scanning substrate: X.509-like certificates, TLS handshakes, a Censys-like IPv4
scanning service with daily snapshots and per-protocol banners, a ZGrab2-like TLS
scanner for IPv6, and IPv6 hitlists."""

from repro.scan.certificates import Certificate
from repro.scan.tls import TlsHandshakeResult, TlsServerConfig, perform_handshake
from repro.scan.censys import CensysHostRecord, CensysService, CensysSnapshot
from repro.scan.hitlist import IPv6Hitlist
from repro.scan.zgrab import ZGrabResult, ZGrabScanner

__all__ = [
    "Certificate",
    "TlsHandshakeResult",
    "TlsServerConfig",
    "perform_handshake",
    "CensysHostRecord",
    "CensysService",
    "CensysSnapshot",
    "IPv6Hitlist",
    "ZGrabResult",
    "ZGrabScanner",
]

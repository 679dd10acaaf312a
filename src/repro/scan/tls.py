"""TLS handshake model: SNI, default certificates, and client-certificate gating.

Two behaviours of real IoT backends are central to the paper's methodology and are
modelled here explicitly:

* **SNI-required servers** (e.g. Google's IoT endpoints) present no usable
  certificate to a scanner that connects by IP address without a Server Name
  Indication value.  This is why Censys-style scans discover <2% of Google's IoT
  IPs and passive DNS dominates for such providers (Figure 3, Section 3.5).
* **Client-certificate-required servers** (e.g. Amazon's MQTT-over-TLS IoT
  endpoints) abort the handshake when the scanner cannot present a client
  certificate, again hiding the server certificate from scan data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.scan.certificates import Certificate


@dataclass
class TlsServerConfig:
    """TLS configuration of a single backend service endpoint.

    Attributes
    ----------
    default_certificate:
        Certificate presented when the client sends no SNI (or an unknown SNI) and
        the server does not require SNI.  ``None`` together with ``require_sni``
        models servers that terminate the handshake without a certificate.
    sni_certificates:
        Mapping of server names to the certificate presented for that name.
        Wildcard-covered names may be resolved by the caller before lookup.
    require_sni:
        When True and the client offers no/unknown SNI, the handshake fails.
    require_client_certificate:
        When True and the client offers no client certificate, the handshake fails
        before the server certificate becomes observable (TLS 1.3-style behaviour,
        conservative for the scanner).
    """

    default_certificate: Optional[Certificate] = None
    sni_certificates: Dict[str, Certificate] = field(default_factory=dict)
    require_sni: bool = False
    require_client_certificate: bool = False

    def certificate_for(self, server_name: Optional[str]) -> Optional[Certificate]:
        """Return the certificate the server would present for a given SNI value."""
        if server_name:
            exact = self.sni_certificates.get(server_name.lower())
            if exact is not None:
                return exact
            for name, cert in self.sni_certificates.items():
                if cert.covers_domain(server_name):
                    return cert
        if self.require_sni:
            return None
        return self.default_certificate


@dataclass(frozen=True)
class TlsHandshakeResult:
    """Outcome of a TLS handshake attempt from the scanner's point of view."""

    success: bool
    certificate: Optional[Certificate] = None
    failure_reason: Optional[str] = None

    @property
    def observed_certificate(self) -> Optional[Certificate]:
        """The certificate visible to the scanner (None when the handshake failed)."""
        return self.certificate if self.success else None


def perform_handshake(
    config: TlsServerConfig,
    server_name: Optional[str] = None,
    offer_client_certificate: bool = False,
) -> TlsHandshakeResult:
    """Simulate a TLS handshake against a server configuration.

    Parameters
    ----------
    config:
        The endpoint's TLS configuration.
    server_name:
        The SNI value offered by the client (scanners connecting by IP send none;
        active resolution-driven probes may send the domain).
    offer_client_certificate:
        Whether the client can present a client certificate.  Scanners cannot.
    """
    if config.require_client_certificate and not offer_client_certificate:
        return TlsHandshakeResult(False, None, "client certificate required")
    certificate = config.certificate_for(server_name)
    if certificate is None:
        if config.require_sni and not server_name:
            return TlsHandshakeResult(False, None, "SNI required")
        if config.require_sni:
            return TlsHandshakeResult(False, None, "unknown server name")
        return TlsHandshakeResult(False, None, "no certificate configured")
    return TlsHandshakeResult(True, certificate, None)

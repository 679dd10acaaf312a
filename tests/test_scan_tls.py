"""Tests for the TLS handshake model (SNI and client-certificate behaviour)."""

from repro.scan.certificates import make_certificate
from repro.scan.tls import TlsServerConfig, perform_handshake


def _cert(name: str):
    return make_certificate([name])


def test_default_certificate_served_without_sni():
    config = TlsServerConfig(default_certificate=_cert("gw.example"))
    result = perform_handshake(config)
    assert result.success
    assert result.certificate.subject_common_name == "gw.example"


def test_sni_required_hides_certificate_from_ip_scans():
    config = TlsServerConfig(
        default_certificate=None,
        sni_certificates={"mqtt.googleapis.com": _cert("mqtt.googleapis.com")},
        require_sni=True,
    )
    blind = perform_handshake(config)
    assert not blind.success
    assert blind.failure_reason == "SNI required"
    with_sni = perform_handshake(config, server_name="mqtt.googleapis.com")
    assert with_sni.success


def test_unknown_sni_rejected():
    config = TlsServerConfig(
        sni_certificates={"a.example": _cert("a.example")}, require_sni=True
    )
    result = perform_handshake(config, server_name="b.example")
    assert not result.success
    assert result.failure_reason == "unknown server name"


def test_wildcard_sni_certificate_matches():
    config = TlsServerConfig(
        sni_certificates={"*.iot.example": make_certificate(["*.iot.example"])},
        require_sni=True,
    )
    result = perform_handshake(config, server_name="tenant.iot.example")
    assert result.success


def test_client_certificate_required_blocks_scanners():
    config = TlsServerConfig(
        default_certificate=_cert("mqtt.iot.example"), require_client_certificate=True
    )
    blocked = perform_handshake(config)
    assert not blocked.success
    assert blocked.failure_reason == "client certificate required"
    allowed = perform_handshake(config, offer_client_certificate=True)
    assert allowed.success


def test_no_certificate_configured():
    result = perform_handshake(TlsServerConfig())
    assert not result.success
    assert result.observed_certificate is None

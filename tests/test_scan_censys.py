"""Tests for the Censys-like scanning service."""

from datetime import date

import pytest

from repro.netmodel.geo import GeoDatabase, world_locations
from repro.netmodel.topology import BackendServer, ServiceEndpoint
from repro.scan.banners import grab_banner
from repro.scan.censys import CensysService
from repro.scan.certificates import make_certificate
from repro.scan.tls import TlsServerConfig

DAY = date(2022, 2, 28)


def _server(ip: str, domain: str, require_sni: bool = False, require_client_cert: bool = False):
    cert = make_certificate([domain], not_before=date(2021, 6, 1), not_after=date(2023, 6, 1))
    tls = TlsServerConfig(
        default_certificate=None if require_sni else cert,
        sni_certificates={domain: cert},
        require_sni=require_sni,
        require_client_certificate=require_client_cert,
    )
    return BackendServer(
        ip=ip,
        provider="acme",
        location=world_locations()[0],
        asn=65001,
        prefix="10.0.0.0/24",
        endpoints=(
            ServiceEndpoint("tcp", 443, "HTTPS", tls=tls),
            ServiceEndpoint("tcp", 8883, "MQTTS", tls=tls),
        ),
        domains=(domain,),
    )


def _service(servers):
    geo = GeoDatabase()
    return CensysService(geo_database=geo, host_source=lambda day: servers)


def test_snapshot_contains_certificates_of_plain_servers():
    service = _service([_server("10.0.0.1", "gw.acme-iot.example")])
    snapshot = service.snapshot(DAY)
    record = snapshot.get("10.0.0.1")
    assert record is not None
    assert ("tcp", 443) in record.open_ports
    assert any("gw.acme-iot.example" in c.all_dns_names() for c in record.certificates)


def test_sni_required_server_yields_no_certificates():
    service = _service([_server("10.0.0.2", "gw.acme-iot.example", require_sni=True)])
    record = service.snapshot(DAY).get("10.0.0.2")
    assert record is not None
    assert record.certificates == ()


def test_client_cert_required_server_yields_no_certificates():
    service = _service([_server("10.0.0.3", "gw.acme-iot.example", require_client_cert=True)])
    record = service.snapshot(DAY).get("10.0.0.3")
    assert record is not None
    assert record.certificates == ()


def test_snapshot_is_cached_and_ipv6_skipped():
    servers = [_server("10.0.0.1", "a.example"), _server("fd00::1", "b.example")]
    service = _service(servers)
    snapshot = service.snapshot(DAY)
    assert service.snapshot(DAY) is snapshot
    assert snapshot.get("fd00::1") is None


def test_banners_collected():
    service = _service([_server("10.0.0.1", "gw.example")])
    record = service.snapshot(DAY).get("10.0.0.1")
    protocols = {banner.protocol for banner in record.banners}
    assert "HTTPS" in protocols
    assert "MQTTS" in protocols


@pytest.mark.parametrize(
    "protocol, expected",
    [
        ("MQTT", ("MQTT", "mqtt connack=NOT_AUTHORIZED")),
        ("MQTTS", ("MQTTS", "mqtt connack=NOT_AUTHORIZED")),
        ("CoAP", ("COAP", "coap response=4.01")),
        ("COAP", ("COAP", "coap response=4.01")),
        ("CoAPS", ("COAPS", "coap response=4.01")),
        ("AMQP", ("AMQP", "amqp header=SASL")),
        ("AMQPS", ("AMQPS", "amqp header=SASL")),
        ("HTTP", ("HTTP", "http status=401")),
        ("HTTPS", ("HTTPS", "http status=401")),
        ("Agnostic", None),
        ("Kinetic", None),
        ("ActiveMQ", None),
        ("OPC-UA", None),
    ],
)
def test_banner_per_protocol(protocol, expected):
    """Every endpoint of a protocol family answers the probe the same way;
    protocols the scanner has no module for yield no banner."""
    banner = grab_banner(ServiceEndpoint("tcp", 443, protocol))
    if expected is None:
        assert banner is None
    else:
        assert (banner.protocol, banner.summary, banner.success) == (*expected, True)


def test_certificate_validity_is_checked_per_day():
    """The per-server probe keeps expired certificates; each day filters its own."""
    from datetime import timedelta

    cert = make_certificate(["gw.example"], not_before=date(2021, 6, 1), not_after=DAY)
    server = BackendServer(
        ip="10.0.0.1",
        provider="acme",
        location=world_locations()[0],
        asn=65001,
        prefix="10.0.0.0/24",
        endpoints=(ServiceEndpoint("tcp", 443, "HTTPS", tls=TlsServerConfig(default_certificate=cert)),),
    )
    service = _service([server])
    assert service.snapshot(DAY + timedelta(days=1)).get("10.0.0.1").certificates == ()
    assert service.snapshot(DAY).get("10.0.0.1").certificates == (cert,)


def test_snapshots_do_not_depend_on_build_order():
    """Per-server probes are reused across days: any day order gives the same snapshots."""
    from repro.simulation.config import ScenarioConfig
    from repro.simulation.world import build_world
    from test_golden import snapshot_text

    config = ScenarioConfig.small(7)
    days = config.study_period.days()
    forward = build_world(config).censys
    backward = build_world(config).censys
    expected = [snapshot_text(forward.snapshot(day)) for day in days]
    reverse = [snapshot_text(backward.snapshot(day)) for day in reversed(days)]
    assert reverse[::-1] == expected


def test_each_server_is_probed_once_per_service(monkeypatch):
    """Handshakes and geolocation run once per server, not once per snapshot."""
    from repro.scan import censys as censys_module
    from repro.simulation.config import ScenarioConfig
    from repro.simulation.world import build_world

    handshakes: dict = {}
    real_handshake = censys_module.perform_handshake

    def counting_handshake(config, server_name=None):
        handshakes[id(config)] = handshakes.get(id(config), 0) + 1
        return real_handshake(config, server_name=server_name)

    monkeypatch.setattr(censys_module, "perform_handshake", counting_handshake)
    config = ScenarioConfig.small(7)
    world = build_world(config)
    lookups: dict = {}
    real_lookup = world.geo_database.lookup_ip

    def counting_lookup(ip):
        lookups[ip] = lookups.get(ip, 0) + 1
        return real_lookup(ip)

    monkeypatch.setattr(world.geo_database, "lookup_ip", counting_lookup)
    scanned = set()
    for day in config.study_period.days():
        scanned.update(world.censys.snapshot(day).records)
    tls_configs = {
        id(endpoint.tls)
        for server in world.all_servers()
        if server.ip in scanned
        for endpoint in server.endpoints
        if endpoint.tls is not None and endpoint.key in CensysService.SCANNED_PORTS
    }
    assert tls_configs and tls_configs <= set(handshakes)
    assert set(handshakes.values()) == {1}
    assert len(lookups) >= len(scanned) and set(lookups.values()) == {1}

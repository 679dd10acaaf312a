"""Tests for the IPv6 hitlist and the ZGrab-like scanner."""

from datetime import date

import pytest

from repro.netmodel.geo import world_locations
from repro.netmodel.topology import BackendServer, ServiceEndpoint
from repro.scan.certificates import make_certificate
from repro.scan.hitlist import IPv6Hitlist
from repro.scan.tls import TlsServerConfig
from repro.scan.zgrab import ZGrabScanner

DAY = date(2022, 2, 28)


def _v6_server(ip: str, domain: str, require_client_cert: bool = False):
    cert = make_certificate([domain])
    tls = TlsServerConfig(default_certificate=cert, require_client_certificate=require_client_cert)
    return BackendServer(
        ip=ip,
        provider="acme",
        location=world_locations()[0],
        asn=65001,
        prefix="fd00::/56",
        endpoints=(
            ServiceEndpoint("tcp", 8883, "MQTTS", tls=tls),
            ServiceEndpoint("tcp", 443, "HTTPS", tls=tls),
        ),
        domains=(domain,),
    )


class TestHitlist:
    def test_add_and_membership(self):
        hitlist = IPv6Hitlist()
        hitlist.add("fd00:0:0:0::1")
        assert hitlist.addresses == {"fd00::1"}
        assert len(hitlist) == 1

    def test_rejects_ipv4(self):
        with pytest.raises(ValueError):
            IPv6Hitlist().add("10.0.0.1")

    def test_iteration_sorted(self):
        hitlist = IPv6Hitlist(name="a")
        for address in ("fd00::3", "fd00::2", "fd00::1"):
            hitlist.add(address)
        assert list(hitlist) == ["fd00::1", "fd00::2", "fd00::3"]
        assert len(hitlist) == 3


class TestZGrab:
    def test_scan_collects_certificates_for_hitlist_addresses(self):
        server = _v6_server("fd00::10", "gw.acme-iot.example")
        hitlist = IPv6Hitlist(addresses={"fd00::10"})
        results = ZGrabScanner().scan(DAY, hitlist, {server.ip: server})
        assert results
        assert any(r.certificate is not None and r.ip == "fd00::10" for r in results)

    def test_addresses_not_on_hitlist_are_not_probed(self):
        server = _v6_server("fd00::20", "gw.acme-iot.example")
        results = ZGrabScanner().scan(DAY, IPv6Hitlist(), {server.ip: server})
        assert results == []

    def test_unresponsive_hitlist_addresses_yield_nothing(self):
        hitlist = IPv6Hitlist(addresses={"fd00::99"})
        scanner = ZGrabScanner()
        assert scanner.scan(DAY, hitlist, {}) == []
        assert scanner.probes_sent == len(scanner.probed_ports)

    def test_client_cert_required_endpoint_yields_no_certificate(self):
        server = _v6_server("fd00::30", "gw.acme-iot.example", require_client_cert=True)
        hitlist = IPv6Hitlist(addresses={"fd00::30"})
        results = ZGrabScanner().scan(DAY, hitlist, {server.ip: server})
        assert results
        assert all(r.certificate is None for r in results)
        assert all(not r.handshake_success for r in results)

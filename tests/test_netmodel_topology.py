"""Tests for backend servers and provider deployments."""

from repro.netmodel.geo import world_locations
from repro.netmodel.topology import BackendServer, ProviderDeployment, ServiceEndpoint


def make_server(ip: str, provider: str = "acme", location_index: int = 0, **kwargs) -> BackendServer:
    location = world_locations()[location_index]
    return BackendServer(
        ip=ip,
        provider=provider,
        location=location,
        asn=65001,
        prefix="10.0.0.0/24",
        endpoints=(ServiceEndpoint("tcp", 8883, "MQTTS"), ServiceEndpoint("tcp", 443, "HTTPS")),
        domains=(f"dev.{provider}.example",),
        **kwargs,
    )


def test_server_ip_normalisation_and_version():
    server = make_server("10.0.0.1")
    assert server.ip == "10.0.0.1"
    assert server.ip_version == 4
    assert not server.is_ipv6
    # IPv6 textual form is canonicalised.
    v6 = make_server("fd00:0:0:0::1")
    assert v6.ip == "fd00::1"
    assert v6.is_ipv6


def test_endpoint_lookup_and_open_ports():
    server = make_server("10.0.0.1")
    assert server.endpoint("tcp", 8883).protocol == "MQTTS"
    assert server.endpoint("udp", 5683) is None
    assert server.endpoint("tcp", 443).key == ("tcp", 443)


def test_deployment_aggregates():
    deployment = ProviderDeployment(
        provider="acme",
        servers=[
            make_server("10.0.0.1", location_index=0),
            make_server("10.0.0.2", location_index=0),
            make_server("10.0.1.1", location_index=10),
            make_server("fd00::1", location_index=10),
        ],
    )
    assert len(deployment.ipv4_servers()) == 3
    assert len(deployment.ipv6_servers()) == 1
    assert len(deployment.countries()) == 2
    assert deployment.continents() == sorted(
        {server.location.continent for server in deployment.servers}
    )
    assert deployment.asns() == [65001]
    assert deployment.prefixes() == ["10.0.0.0/24"]

"""Tests for inter-provider hosting dependencies and cascade exposure."""

from repro.core.dependencies import (
    cascade_exposure,
    hosting_dependencies,
    most_critical_organization,
    shared_hosting_organizations,
)
from repro.core.discovery import DiscoveredIP, DiscoveryResult
from repro.core.providers import CLOUD_AWS
from repro.netmodel.asn import AsKind, AsRegistry
from repro.routing.bgp import Announcement, RoutingTable


def _toy_setup():
    registry = AsRegistry()
    aws = registry.create("aws", CLOUD_AWS, AsKind.CLOUD)
    azure = registry.create("azure", "Microsoft Azure", AsKind.CLOUD)
    siemens_own = registry.create("siemens", "Siemens", AsKind.IOT_BACKEND)
    table = RoutingTable()
    table.announce(Announcement("10.1.0.0/24", aws.asn, CLOUD_AWS))
    table.announce(Announcement("10.2.0.0/24", azure.asn, "Microsoft Azure"))
    table.announce(Announcement("10.3.0.0/24", siemens_own.asn, "Siemens"))
    result = DiscoveryResult()
    result.add(DiscoveredIP("10.1.0.1", "bosch"))
    result.add(DiscoveredIP("10.1.0.2", "bosch"))
    result.add(DiscoveredIP("10.1.0.3", "siemens"))
    result.add(DiscoveredIP("10.2.0.1", "siemens"))
    result.add(DiscoveredIP("10.3.0.1", "siemens"))
    return result, table, registry


def test_hosting_dependencies_split_by_organization():
    result, table, registry = _toy_setup()
    dependencies = hosting_dependencies(result, table, registry)
    bosch = dependencies["bosch"]
    assert bosch.addresses_by_organization == {CLOUD_AWS: 2}
    assert bosch.relies_on_third_party
    siemens = dependencies["siemens"]
    assert siemens.total_addresses == 3
    assert siemens.share(CLOUD_AWS) == 1 / 3
    assert siemens.organizations()[0] in (CLOUD_AWS, "Microsoft Azure", "Siemens")


def test_shared_hosting_and_cascade_exposure():
    result, table, registry = _toy_setup()
    dependencies = hosting_dependencies(result, table, registry)
    shared = shared_hosting_organizations(dependencies)
    assert shared == {CLOUD_AWS: ["bosch", "siemens"]}
    impacts = cascade_exposure(dependencies, CLOUD_AWS)
    by_provider = {impact.provider_key: impact for impact in impacts}
    assert by_provider["bosch"].affected_fraction == 1.0
    assert 0.0 < by_provider["siemens"].affected_fraction < 1.0
    assert most_critical_organization(dependencies) == CLOUD_AWS


def test_cascade_exposure_minimum_fraction_filter():
    result, table, registry = _toy_setup()
    dependencies = hosting_dependencies(result, table, registry)
    impacts = cascade_exposure(dependencies, CLOUD_AWS, minimum_fraction=0.5)
    assert [impact.provider_key for impact in impacts] == ["bosch"]


def test_dependencies_on_synthetic_world(small_world, small_pipeline_result):
    dependencies = hosting_dependencies(
        small_pipeline_result.combined,
        small_world.routing_table,
        small_world.as_registry,
    )
    # The six PR providers rely on third-party clouds; the DI providers do not.
    for key in ("bosch", "cisco", "ptc", "sap", "siemens", "sierra"):
        assert dependencies[key].relies_on_third_party, key
    for key in ("amazon", "microsoft", "google", "tencent"):
        assert not dependencies[key].relies_on_third_party, key
    # AWS hosts several IoT backends, so its outage would cascade (Section 7).
    shared = shared_hosting_organizations(dependencies)
    assert CLOUD_AWS in shared
    assert len(shared[CLOUD_AWS]) >= 2
    impacts = cascade_exposure(dependencies, CLOUD_AWS, minimum_fraction=0.0)
    assert any(impact.affected_fraction == 1.0 for impact in impacts)


def test_empty_result_has_no_dependencies():
    dependencies = hosting_dependencies(DiscoveryResult(), RoutingTable(), AsRegistry())
    assert dependencies == {}
    assert most_critical_organization(dependencies) is None
    assert shared_hosting_organizations(dependencies) == {}

"""Tests for footprint characterization (geolocation, strategy inference, Table 1)."""

from repro.core.discovery import DiscoveredIP, DiscoveryResult
from repro.core.footprint import (
    characterize_provider,
    continent_distribution,
    geolocate_ip,
    infer_strategy,
    location_hint_from_domain,
)
from repro.core.providers import STRATEGY_DI, STRATEGY_DI_PR, STRATEGY_PR
from repro.netmodel.asn import AsKind, AsRegistry
from repro.netmodel.geo import GeoDatabase, world_locations
from repro.routing.bgp import Announcement, RoutingTable


def _geo_db():
    db = GeoDatabase()
    for location in world_locations():
        db.register_location(location)
    return db


def test_location_hint_from_region_code_and_airport():
    db = _geo_db()
    assert location_hint_from_domain("tenant.iot.eu-central-1.amazonaws.com", db).city == "Frankfurt"
    assert location_hint_from_domain("edge.fra.example.net", db).city == "Frankfurt"
    assert location_hint_from_domain("tenant.azure-devices.net", db) is None


def test_geolocate_ip_majority_vote():
    db = _geo_db()
    frankfurt = db.lookup_region_code("eu-central-1")
    db.register_prefix("10.0.0.0/24", frankfurt)
    located = geolocate_ip("10.0.0.1", ["x.iot.eu-central-1.amazonaws.com"], db)
    assert located.location == frankfurt
    assert not located.disagreement
    # Conflicting domain hint vs prefix location is flagged as a disagreement.
    conflicting = geolocate_ip("10.0.0.1", ["x.iot.us-east-1.amazonaws.com"], db)
    assert conflicting.disagreement


def test_infer_strategy():
    registry = AsRegistry()
    own = registry.create("own", "Acme", AsKind.IOT_BACKEND)
    cloud = registry.create("cloud", "Big Cloud", AsKind.CLOUD)
    assert infer_strategy({}, "Acme", registry, [own.asn]) == STRATEGY_DI
    assert infer_strategy({}, "Acme", registry, [cloud.asn]) == STRATEGY_PR
    assert infer_strategy({}, "Acme", registry, [own.asn, cloud.asn]) == STRATEGY_DI_PR


def test_characterize_provider_counts():
    db = _geo_db()
    frankfurt = db.lookup_region_code("eu-central-1")
    ashburn = db.lookup_region_code("us-east-1")
    db.register_prefix("10.0.0.0/24", frankfurt)
    db.register_prefix("10.0.1.0/24", ashburn)
    registry = AsRegistry()
    own = registry.create("amazon-iot", "Amazon", AsKind.IOT_BACKEND)
    table = RoutingTable()
    table.announce(Announcement("10.0.0.0/24", own.asn, "Amazon"))
    table.announce(Announcement("10.0.1.0/24", own.asn, "Amazon"))
    result = DiscoveryResult()
    result.add(DiscoveredIP("10.0.0.1", "amazon", {"tls-certificates"}, {"a.iot.eu-central-1.amazonaws.com"}))
    result.add(DiscoveredIP("10.0.1.1", "amazon", {"tls-certificates"}, {"b.iot.us-east-1.amazonaws.com"}))
    result.add(DiscoveredIP("fd00::1", "amazon", {"ipv6-scan"}, {"c.iot.eu-central-1.amazonaws.com"}))
    report = characterize_provider("amazon", result, table, registry, db)
    assert report.ipv4_count == 2 and report.ipv6_count == 1
    assert report.slash24_count == 2
    assert report.as_count == 1
    assert report.prefix_count == 2
    assert report.location_count == 2
    assert report.country_count == 2
    assert report.strategy == STRATEGY_DI
    assert report.multi_country
    assert set(report.servers_per_continent()) <= {"EU", "NA"}


def test_characterize_all_and_continent_distribution(small_world, small_pipeline_result):
    from repro.core.providers import PROVIDERS

    reports = small_pipeline_result.footprints
    assert set(reports).issubset({spec.key for spec in PROVIDERS})
    distribution = continent_distribution(reports)
    assert abs(sum(distribution.values()) - 1.0) < 1e-6
    # Most backend servers are outside Europe (the paper's 65% US observation).
    assert distribution.get("NA", 0.0) > distribution.get("AS", 0.0)


def test_strategy_inference_matches_catalog(small_pipeline_result):
    footprints = small_pipeline_result.footprints
    assert footprints["amazon"].strategy == STRATEGY_DI
    assert footprints["microsoft"].strategy == STRATEGY_DI
    assert footprints["sap"].strategy == STRATEGY_PR
    assert footprints["ptc"].strategy == STRATEGY_PR
    assert footprints["bosch"].strategy == STRATEGY_PR
    # Oracle mixes dedicated infrastructure with a CDN; depending on which addresses
    # were discovered the inference yields DI or DI+PR, never pure PR.
    assert footprints["oracle"].strategy in (STRATEGY_DI, STRATEGY_DI_PR)

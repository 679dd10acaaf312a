"""Tests for shared-IP classification and ground-truth validation."""

from datetime import date, datetime

from repro.core.discovery import DiscoveredIP, DiscoveryResult
from repro.core.validation import (
    classify_shared_ips,
    traffic_coverage,
    validate_against_ground_truth,
)
from repro.dns.passive_db import PassiveDnsDatabase
from repro.flows.flowtable import FlowTable
from repro.flows.netflow import make_flow


def _result_with(ips):
    result = DiscoveryResult()
    for ip, provider in ips:
        result.add(DiscoveredIP(ip, provider, {"tls-certificates"}, {f"x.{provider}.example"}))
    return result


def test_shared_ip_excluded_when_many_non_iot_domains():
    result = _result_with([("10.0.0.1", "google"), ("10.0.0.2", "google")])
    db = PassiveDnsDatabase()
    for index in range(25):
        db.add_observation(f"www{index}.content.example", "10.0.0.1", date(2022, 2, 1))
    db.add_observation("mqtt.googleapis.com", "10.0.0.2", date(2022, 2, 1))
    classification = classify_shared_ips(result, db, threshold=10)
    assert classification.shared_ips("google") == {"10.0.0.1"}
    assert classification.dedicated.ips("google") == {"10.0.0.2"}
    assert classification.shared_count() == 1


def test_iot_domains_do_not_count_towards_threshold():
    result = _result_with([("10.0.0.1", "microsoft")])
    db = PassiveDnsDatabase()
    for index in range(30):
        db.add_observation(f"tenant{index}.azure-devices.net", "10.0.0.1", date(2022, 2, 1))
    classification = classify_shared_ips(result, db, threshold=10)
    assert classification.shared_count() == 0


def test_ground_truth_validation_counts_inside_and_outside():
    result = _result_with([("10.0.0.1", "cisco"), ("10.0.0.2", "cisco"), ("10.9.0.1", "cisco")])
    report = validate_against_ground_truth(result, "cisco", ["10.0.0.0/24"])
    assert report.discovered_count == 3
    assert report.discovered_inside == 2
    assert report.discovered_outside == 1
    assert not report.all_inside
    assert 0 < report.precision < 1
    assert report.published_address_count == 256


def test_ground_truth_validation_empty_result():
    report = validate_against_ground_truth(DiscoveryResult(), "cisco", ["10.0.0.0/24"])
    assert report.precision == 1.0
    assert report.all_inside


def test_traffic_coverage_underestimation():
    result = _result_with([("10.0.0.1", "microsoft")])
    flows = []
    for ip, volume in (("10.0.0.1", 9000.0), ("10.0.0.9", 100.0)):
        flows.append(
            make_flow(
                timestamp=datetime(2022, 2, 28, 10),
                subscriber_id=1,
                subscriber_prefix="p",
                ip_version=4,
                provider_key="microsoft",
                server_ip=ip,
                server_continent="EU",
                server_region="eu-west-1",
                transport="tcp",
                port=8883,
                bytes_down=volume,
                bytes_up=volume / 10,
            )
        )
    report = traffic_coverage(result, "microsoft", FlowTable.from_records(flows))
    assert report.active_server_ips == 2
    assert report.missed_ips == 1
    assert 0.0 < report.underestimation_fraction < 0.05


def test_traffic_coverage_with_no_flows():
    report = traffic_coverage(_result_with([("10.0.0.1", "microsoft")]), "microsoft", FlowTable())
    assert report.underestimation_fraction == 0.0

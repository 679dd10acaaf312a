"""Tests for shared-IP classification and ground-truth validation."""

import os
import subprocess
import sys
from datetime import date, datetime
from pathlib import Path

from repro.core.discovery import DiscoveredIP, DiscoveryResult
from repro.core.validation import (
    classify_shared_ips,
    traffic_coverage,
    validate_against_ground_truth,
)
from repro.dns.passive_db import PassiveDnsDatabase
from repro.flows.flowtable import FlowTable

from flowrows import from_records, make_flow


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
    report = traffic_coverage(result, "microsoft", from_records(flows))
    assert report.active_server_ips == 2
    assert report.missed_ips == 1
    assert 0.0 < report.underestimation_fraction < 0.05


def test_traffic_coverage_with_no_flows():
    report = traffic_coverage(_result_with([("10.0.0.1", "microsoft")]), "microsoft", FlowTable())
    assert report.underestimation_fraction == 0.0


#: Five missed servers in first-appearance order: summing their bytes in set
#: order gave 1e16 or 1.0000000000000004e16 depending on PYTHONHASHSEED.
_MISSED_VOLUMES = (("10.0.0.11", 1.0), ("10.0.0.12", 1.0), ("10.0.0.13", 1e16),
                   ("10.0.0.14", 1.0), ("10.0.0.15", 1.0))


def coverage_by_backend():
    """``(total, missed)`` bytes of the five-missed-server case on each backend."""
    from repro.flows import kernels

    result = _result_with([("10.0.0.1", "microsoft")])
    flows = [
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
            bytes_up=0.0,
        )
        for ip, volume in (("10.0.0.1", 5.0),) + _MISSED_VOLUMES
    ]
    table = from_records(flows)
    backends = [kernels.BACKEND_PYTHON] + ([kernels.BACKEND_NUMPY] if kernels.numpy_available() else [])
    values = {}
    for backend in backends:
        kernels.set_backend(backend)
        report = traffic_coverage(result, "microsoft", table)
        values[backend] = (report.traffic_bytes_total, report.traffic_bytes_missed)
    kernels.set_backend(None)
    return values


def test_traffic_coverage_totals_ignore_hash_seed_and_backend():
    """Missed bytes fold left to right in first-appearance order, in every process."""
    expected_missed = 0.0
    for _ip, volume in _MISSED_VOLUMES:
        expected_missed += volume
    expected_total = 5.0 + expected_missed
    program = (
        "import sys; sys.path.insert(0, 'tests');"
        "from test_core_validation import coverage_by_backend;"
        "print(repr(sorted(coverage_by_backend().items())))"
    )
    root = Path(__file__).resolve().parents[1]
    outputs = set()
    for seed in ("0", "1", "2", "3"):
        environment = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(root / "src"))
        environment.pop("IOT_REPRO_KERNELS", None)
        completed = subprocess.run(
            [sys.executable, "-c", program], cwd=root, env=environment,
            capture_output=True, text=True, check=True,
        )
        outputs.add(completed.stdout)
    assert len(outputs) == 1, outputs
    for backend, (total, missed) in coverage_by_backend().items():
        assert (total, missed) == (expected_total, expected_missed), backend
    assert repr(sorted(coverage_by_backend().items())) + "\n" in outputs

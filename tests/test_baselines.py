"""Tests for the port-scan-only and TLS-only baselines."""

from repro.baselines.portscan_only import portscan_only_discovery
from repro.baselines.tls_only import tls_only_discovery


def test_tls_only_discovery_is_subset_of_full(small_world, small_pipeline_result):
    period = small_world.config.study_period
    snapshots = [small_world.censys.snapshot(day) for day in period.days()]
    tls_only = tls_only_discovery(snapshots)
    full = small_pipeline_result.combined
    assert tls_only.ips().issubset(full.ips())
    # DNS-based sources add addresses beyond certificates alone.
    assert len(tls_only.ips()) < len(full.ips())


def test_tls_only_misses_sni_providers(small_world, small_pipeline_result):
    period = small_world.config.study_period
    snapshots = [small_world.censys.snapshot(day) for day in period.days()]
    tls_only = tls_only_discovery(snapshots)
    full = small_pipeline_result.combined
    # Google requires SNI, so certificate scans find (almost) none of its IPs.
    assert len(tls_only.ips("google")) < len(full.ips("google"))


def test_portscan_baseline_reports_misses(small_world, small_pipeline_result):
    snapshot = small_world.censys.snapshot(small_world.config.study_period.start)
    report = portscan_only_discovery(snapshot, small_pipeline_result.combined)
    assert report.reference_ips
    assert 0.0 <= report.recall <= 1.0
    assert report.miss_fraction == 1.0 - report.recall
    # Port scanning alone misses part of the backend (web-port-only deployments).
    assert report.missed_backends
    # Every candidate is unattributable without domain knowledge.
    assert report.unattributable == report.candidate_ips


def test_portscan_baseline_on_empty_snapshot(small_world):
    from repro.core.discovery import DiscoveryResult
    from repro.scan.censys import CensysSnapshot
    from datetime import date

    empty = CensysSnapshot(snapshot_date=date(2022, 2, 28))
    report = portscan_only_discovery(empty, DiscoveryResult())
    assert report.recall == 0.0
    assert not report.candidate_ips
